package session

import (
	"bytes"
	"encoding/json"
	"errors"
	"sync"
	"testing"
)

// memJournal is an in-memory Journal that records every Update body in
// order.
type memJournal struct {
	mu      sync.Mutex
	docs    map[string][]byte
	updates [][]byte
}

func newMemJournal() *memJournal { return &memJournal{docs: map[string][]byte{}} }

func (j *memJournal) Get(key string) ([]byte, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	b, ok := j.docs[key]
	return b, ok
}

func (j *memJournal) Update(key string, body []byte) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.docs[key] = append([]byte(nil), body...)
	j.updates = append(j.updates, j.docs[key])
	return nil
}

func (j *memJournal) bodies() [][]byte {
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([][]byte(nil), j.updates...)
}

// TestJournalSizeIndependentOfSteps: a session stepped one round at a
// time journals its position, not its history — no Update body is more
// than a few counter digits longer than the creation body.
func TestJournalSizeIndependentOfSteps(t *testing.T) {
	j := newMemJournal()
	r := newTestRegistry(t, Options{Journal: j})
	s, err := r.Create(Spec{Channel: "l1d", Samples: 400, Seed: ptr(7)})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	steps := 0
	for seq := uint64(1); ; seq++ {
		res, err := s.StepSeq(1, seq)
		if err != nil {
			t.Fatalf("StepSeq(1, %d): %v", seq, err)
		}
		steps++
		if res.Done {
			break
		}
	}
	bodies := j.bodies()
	if len(bodies) != steps+1 {
		t.Fatalf("%d journal writes for create + %d steps", len(bodies), steps)
	}
	first := len(bodies[0])
	for i, b := range bodies {
		if len(b) > first+32 {
			t.Fatalf("write %d of %d is %d B, creation wrote %d B: the journal grows with steps",
				i, len(bodies), len(b), first)
		}
	}
}

// TestDecodeJournal pins what the decoder accepts and rejects.
func TestDecodeJournal(t *testing.T) {
	pos := func(steps, chunks, seq, rounds, from string) []byte {
		return []byte(`{"id":"s-a-1","spec":{"channel":"l1d","samples":24},"steps":` + steps +
			`,"chunks":` + chunks + `,"last":{"seq":` + seq + `,"rounds":` + rounds + `,"from":` + from + `}}`)
	}
	accept := map[string][]byte{
		"fresh":          pos("0", "0", "0", "0", "0"),
		"sequenced":      pos("3", "5", "2", "4", "1"),
		"unsequenced":    pos("3", "5", "0", "0", "0"),
		"at chunk cap":   pos("1", "100000", "1", "1", "0"),
		"interrupt cap":  []byte(`{"id":"s-a-1","spec":{"channel":"interrupt","samples":10},"steps":1,"chunks":420}`),
		"tombstone":      []byte(`{"id":"s-a-1","spec":{"channel":""},"closed":"deleted"}`),
		"no steps field": []byte(`{"id":"s-a-1","spec":{"channel":"l1d"}}`),
	}
	for name, body := range accept {
		if _, err := decodeJournal(body); err != nil {
			t.Errorf("%s: rejected: %v", name, err)
		}
	}
	reject := map[string][]byte{
		"not json":            []byte(`{"id":`),
		"bad id":              []byte(`{"id":"../x","spec":{"channel":"l1d"}}`),
		"bad spec":            []byte(`{"id":"s-a-1","spec":{"channel":"nope"}}`),
		"from past chunks":    pos("3", "5", "2", "4", "6"),
		"negative from":       pos("3", "5", "2", "4", "-1"),
		"chunks past cap":     pos("1", "100001", "0", "0", "0"),
		"negative chunks":     pos("1", "-1", "0", "0", "0"),
		"interrupt past cap":  []byte(`{"id":"s-a-1","spec":{"channel":"interrupt","samples":10},"steps":1,"chunks":421}`),
		"zero rounds":         pos("3", "5", "2", "0", "1"),
		"rounds past bound":   pos("3", "5", "2", "1048577", "1"),
		"last without seq":    pos("3", "5", "0", "4", "1"),
		"chunks without step": pos("0", "5", "0", "0", "0"),
		"steps a list":        []byte(`{"id":"s-a-1","spec":{"channel":"l1d"},"steps":[{"seq":1,"rounds":3}]}`),
		"steps not a count":   []byte(`{"id":"s-a-1","spec":{"channel":"l1d"},"steps":"x"}`),
	}
	for name, body := range reject {
		if _, err := decodeJournal(body); !errors.Is(err, errJournal) {
			t.Errorf("%s: got %v, want errJournal", name, err)
		}
	}
}

// FuzzDecodeJournal: the decoder never panics on arbitrary bytes, and
// every doc it accepts meets the invariants restore relies on.
func FuzzDecodeJournal(f *testing.F) {
	f.Add([]byte(`{"id":"s-a-1","spec":{"channel":"l1d","samples":24},"steps":3,"chunks":5,` +
		`"last":{"seq":2,"rounds":4,"from":1}}`))
	f.Add([]byte(`{"id":"s-a-1","spec":{"channel":""},"closed":"deleted"}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		doc, err := decodeJournal(body)
		if err != nil {
			if !errors.Is(err, errJournal) {
				t.Fatalf("error %v does not wrap errJournal", err)
			}
			return
		}
		if validID(doc.ID) != nil {
			t.Fatalf("accepted invalid id %q", doc.ID)
		}
		if doc.Closed != "" {
			if doc != (journalDoc{ID: doc.ID, Closed: doc.Closed}) {
				t.Fatalf("tombstone carries a position: %+v", doc)
			}
			return
		}
		if _, err := doc.Spec.withDefaults(); err != nil {
			t.Fatalf("accepted spec %+v: %v", doc.Spec, err)
		}
		if doc.Chunks < 0 || doc.Chunks > chunkCap(doc.Spec) {
			t.Fatalf("accepted chunks %d, cap %d", doc.Chunks, chunkCap(doc.Spec))
		}
		if l := doc.Last; l != (lastStep{}) {
			if l.Seq == 0 || l.Rounds < 1 || l.Rounds > MaxStepRounds || l.From < 0 || l.From > doc.Chunks {
				t.Fatalf("accepted last step %+v at chunk %d", l, doc.Chunks)
			}
		}
		// An accepted position re-encodes to a doc that decodes to itself.
		b, err := json.Marshal(doc)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		again, err := decodeJournal(b)
		if err != nil || !bytes.Equal(mustJSON(t, again), b) {
			t.Fatalf("re-encoded doc %s decodes to %+v, %v", b, again, err)
		}
	})
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return b
}
