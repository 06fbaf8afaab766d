package enc

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	var w Writer
	w.U64(0)
	w.U64(math.MaxUint64)
	w.I64(-1)
	w.I64(math.MinInt64)
	w.Int(42)
	w.Bool(true)
	w.Bool(false)
	w.F64(3.14159)
	w.F64(math.Inf(-1))
	w.String("hello")
	w.String("")
	w.U64s([]uint64{1, 2, 3})
	w.U64s(nil)
	w.Ints([]int{-5, 0, 5})

	r := NewReader(w.Bytes())
	if got := r.U64(); got != 0 {
		t.Errorf("U64 = %d, want 0", got)
	}
	if got := r.U64(); got != math.MaxUint64 {
		t.Errorf("U64 = %d, want MaxUint64", got)
	}
	if got := r.I64(); got != -1 {
		t.Errorf("I64 = %d, want -1", got)
	}
	if got := r.I64(); got != math.MinInt64 {
		t.Errorf("I64 = %d, want MinInt64", got)
	}
	if got := r.Int(); got != 42 {
		t.Errorf("Int = %d, want 42", got)
	}
	if !r.Bool() || r.Bool() {
		t.Errorf("Bool round-trip failed")
	}
	if got := r.F64(); got != 3.14159 {
		t.Errorf("F64 = %v, want 3.14159", got)
	}
	if got := r.F64(); !math.IsInf(got, -1) {
		t.Errorf("F64 = %v, want -Inf", got)
	}
	if got := r.String(); got != "hello" {
		t.Errorf("String = %q, want hello", got)
	}
	if got := r.String(); got != "" {
		t.Errorf("String = %q, want empty", got)
	}
	if got := r.U64s(); len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Errorf("U64s = %v, want [1 2 3]", got)
	}
	if got := r.U64s(); len(got) != 0 {
		t.Errorf("U64s = %v, want empty", got)
	}
	if got := r.Ints(); len(got) != 3 || got[0] != -5 || got[2] != 5 {
		t.Errorf("Ints = %v, want [-5 0 5]", got)
	}
	if err := r.Err(); err != nil {
		t.Fatalf("Err = %v after valid round-trip", err)
	}
	if r.Remaining() != 0 {
		t.Fatalf("Remaining = %d, want 0", r.Remaining())
	}
}

func TestTruncation(t *testing.T) {
	var w Writer
	w.U64(1 << 40)
	w.String("payload")
	full := w.Bytes()
	for cut := 0; cut < len(full); cut++ {
		r := NewReader(full[:cut])
		r.U64()
		_ = r.String()
		if r.Err() == nil {
			t.Fatalf("cut=%d: truncated read did not error", cut)
		}
	}
}

func TestErrorLatches(t *testing.T) {
	r := NewReader(nil)
	if got := r.U64(); got != 0 {
		t.Errorf("failed U64 = %d, want 0", got)
	}
	if r.Err() == nil {
		t.Fatal("empty read did not error")
	}
	// Subsequent reads stay failed and return zero values.
	if got := r.String(); got != "" {
		t.Errorf("read after error = %q, want empty", got)
	}
	if r.Err() == nil {
		t.Fatal("error did not latch")
	}
}

// TestDeterministic asserts the writer is append-only deterministic:
// the same write sequence yields the same bytes, the foundation of the
// encode-equality state digests the snapshot layer relies on.
func TestDeterministic(t *testing.T) {
	build := func() []byte {
		var w Writer
		w.U64(7)
		w.String("x")
		w.Ints([]int{3, 1, 2})
		return w.Bytes()
	}
	if !bytes.Equal(build(), build()) {
		t.Fatal("identical write sequences produced different bytes")
	}
}

// TestCanonicalScalars checks the Reader refuses the second spellings
// of a scalar — a varint padded with a zero continuation byte, a
// boolean byte other than 0 or 1 — and a count the bytes left cannot
// hold.
func TestCanonicalScalars(t *testing.T) {
	for _, tc := range []struct {
		name string
		b    []byte
		read func(*Reader)
	}{
		{"U64 zero padded", []byte{0x80, 0x00}, func(r *Reader) { r.U64() }},
		{"U64 one padded", []byte{0x81, 0x80, 0x00}, func(r *Reader) { r.U64() }},
		{"I64 padded", []byte{0x83, 0x00}, func(r *Reader) { r.I64() }},
		{"Bool 2", []byte{2}, func(r *Reader) { r.Bool() }},
		{"Count negative", []byte{1}, func(r *Reader) { r.Count() }},
		{"Count beyond the bytes left", []byte{6, 0}, func(r *Reader) { r.Count() }},
	} {
		r := NewReader(tc.b)
		tc.read(r)
		if !errors.Is(r.Err(), ErrInvalid) {
			t.Errorf("%s: err = %v, want ErrInvalid", tc.name, r.Err())
		}
	}
}

// TestSparseListsRoundTrip checks both list forms on random inputs: an
// index list returns its indices, a run list its values (wrapping
// strides included), and re-encoding the decoded values gives the same
// bytes.
func TestSparseListsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 2000; iter++ {
		n := rng.Intn(200)
		var idx []int
		for i := 0; i < n; i++ {
			if rng.Intn(4) == 0 {
				idx = append(idx, i)
			}
		}
		var w Writer
		prev := -1
		for _, i := range idx {
			w.Index(&prev, i)
		}
		w.Index(&prev, n)

		var vs []uint64
		for len(vs) < rng.Intn(40) {
			start, stride := rng.Uint64()>>uint(rng.Intn(64)), uint64(rng.Intn(7))-3
			if rng.Intn(8) == 0 {
				stride = rng.Uint64()
			}
			for k := rng.Intn(6); k >= 0; k-- {
				vs = append(vs, start)
				start += stride
			}
		}
		WriteRuns(&w, vs)

		r := NewReader(w.Bytes())
		var got []int
		for i := r.Index(-1, n); i < n; i = r.Index(i, n) {
			got = append(got, i)
		}
		gotVs := ReadRuns[uint64](r, nil, len(vs))
		if err := r.Err(); err != nil || r.Remaining() != 0 {
			t.Fatalf("iter %d: err %v, %d bytes left", iter, err, r.Remaining())
		}
		if fmt.Sprint(got) != fmt.Sprint(idx) || fmt.Sprint(gotVs) != fmt.Sprint(vs) {
			t.Fatalf("iter %d: decoded %v / %v, want %v / %v", iter, got, gotVs, idx, vs)
		}
		var w2 Writer
		WriteRuns(&w2, gotVs)
		var w3 Writer
		WriteRuns(&w3, vs)
		if !bytes.Equal(w2.Bytes(), w3.Bytes()) {
			t.Fatalf("iter %d: run list re-encoded differently", iter)
		}
	}
}

// TestSparseListsReject gives every framing rule of the two list forms
// a case: each must fail with ErrInvalid and stop the decode loop.
func TestSparseListsReject(t *testing.T) {
	raw := func(vs ...uint64) []byte {
		var w Writer
		for _, v := range vs {
			w.U64(v)
		}
		return w.Bytes()
	}
	zz := func(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }
	indexCases := []struct {
		name string
		b    []byte
	}{
		{"repeated index", raw(1, 0, 9)},
		{"index beyond the table", raw(3, 9)},
		{"closing distance past the table", raw(12)},
	}
	for _, tc := range indexCases {
		r := NewReader(tc.b)
		steps := 0
		for i := r.Index(-1, 10); i < 10 && steps < 20; i = r.Index(i, 10) {
			steps++
		}
		if !errors.Is(r.Err(), ErrInvalid) {
			t.Errorf("%s: err = %v, want ErrInvalid", tc.name, r.Err())
		}
	}
	runCases := []struct {
		name  string
		b     []byte
		limit int
	}{
		{"more values than the bound", raw(5, 5, 10, zz(1)), 4},
		{"empty run", raw(3, 0, 10), 8},
		{"run past the list", raw(3, 4, 10, zz(1)), 8},
		{"single-value run before the end", raw(3, 1, 10, 2, 11, zz(1)), 8},
		{"run mergeable with its predecessor", raw(4, 2, 10, zz(1), 2, 12, zz(5)), 8},
		{"mergeable after a negative stride", raw(3, 2, 10, zz(-2), 1, 6), 8},
	}
	for _, tc := range runCases {
		r := NewReader(tc.b)
		if got := ReadRuns[uint64](r, nil, tc.limit); len(got) != 0 || !errors.Is(r.Err(), ErrInvalid) {
			t.Errorf("%s: got %v, err = %v, want ErrInvalid", tc.name, got, r.Err())
		}
	}
	// The well-formed neighbours of the run cases decode.
	for _, b := range [][]byte{raw(3, 2, 10, zz(1), 1, 13), raw(4, 2, 10, zz(1), 2, 13, zz(5))} {
		r := NewReader(b)
		if ReadRuns[uint64](r, nil, 8); r.Err() != nil {
			t.Errorf("%x: %v", b, r.Err())
		}
	}
}
