package fault

import (
	"testing"
	"time"
)

// TestBreaker walks one key through the breaker's states on a manual
// clock: failures below the threshold leave it closed, the threshold
// opens it, the cooldown closes it again (half-open), a half-open
// failure re-opens it for a fresh cooldown, and a success closes it
// and resets the count. Keys are independent, and a zero threshold
// never opens.
func TestBreaker(t *testing.T) {
	clock := time.Unix(0, 0)
	b := NewBreaker(2, time.Second)
	b.now = func() time.Time { return clock }

	b.Failure("a")
	if b.Open("a") {
		t.Fatal("open after 1 failure with threshold 2")
	}
	b.Failure("a")
	if !b.Open("a") {
		t.Fatal("closed after 2 failures with threshold 2")
	}
	if b.Open("b") {
		t.Fatal("an untouched key reads open")
	}
	if st := b.Stats(); st != (BreakerStats{Threshold: 2, Open: 1, Tripped: 1}) {
		t.Fatalf("stats with one open key = %+v", st)
	}

	clock = clock.Add(999 * time.Millisecond)
	if !b.Open("a") {
		t.Fatal("closed before the cooldown passed")
	}
	clock = clock.Add(time.Millisecond)
	if b.Open("a") {
		t.Fatal("still open once the cooldown passed")
	}
	if st := b.Stats(); st.Open != 0 {
		t.Fatalf("stats count a half-open key as open: %+v", st)
	}

	// Half-open: one failure re-opens for a fresh cooldown.
	b.Failure("a")
	if !b.Open("a") {
		t.Fatal("a half-open failure did not re-open the circuit")
	}
	clock = clock.Add(500 * time.Millisecond)
	if !b.Open("a") {
		t.Fatal("re-opened circuit closed before its fresh cooldown passed")
	}
	if st := b.Stats(); st.Tripped != 2 {
		t.Fatalf("tripped = %d after two openings, want 2", st.Tripped)
	}

	// Success closes the circuit and resets the count: one new failure
	// stays below the threshold.
	b.Success("a")
	if b.Open("a") {
		t.Fatal("open after Success")
	}
	b.Failure("a")
	if b.Open("a") {
		t.Fatal("Success did not reset the failure count")
	}

	off := NewBreaker(0, time.Second)
	off.now = func() time.Time { return clock }
	for i := 0; i < 10; i++ {
		off.Failure("a")
	}
	if off.Open("a") {
		t.Fatal("a zero-threshold breaker opened")
	}
	if st := off.Stats(); st != (BreakerStats{}) {
		t.Fatalf("zero-threshold stats = %+v, want all zero", st)
	}
}
