package hw

import (
	"testing"

	"timeprotection/internal/enc"
)

// TestDecodeIRQRejectsCorruptState feeds the interrupt fabric's decoder
// hand-built blobs. A count the blob cannot hold must fail before it
// sizes a map (a count of 2^40 used to panic in make), and a map or set
// whose keys are not strictly ascending is a second spelling of a
// smaller one.
func TestDecodeIRQRejectsCorruptState(t *testing.T) {
	blob := func(build func(w *enc.Writer)) []byte {
		var w enc.Writer
		w.Bool(false) // one-level fabric
		build(&w)
		return w.Bytes()
	}
	cases := []struct {
		name string
		b    []byte
		ok   bool
	}{
		{"well-formed", blob(func(w *enc.Writer) {
			w.Int(2)
			w.Int(3)
			w.Int(0)
			w.Int(5)
			w.Int(1)
			w.Ints([]int{1, 4})
			w.Ints(nil)
			w.Ints(nil)
		}), true},
		{"routing count beyond the blob", blob(func(w *enc.Writer) { w.Int(1 << 40) }), false},
		{"negative routing count", blob(func(w *enc.Writer) { w.Int(-1) }), false},
		{"routing key repeated", blob(func(w *enc.Writer) {
			w.Int(2)
			w.Int(3)
			w.Int(0)
			w.Int(3)
			w.Int(1)
			w.Ints(nil)
			w.Ints(nil)
			w.Ints(nil)
		}), false},
		{"pending set out of order", blob(func(w *enc.Writer) {
			w.Int(0)
			w.Ints([]int{4, 1})
			w.Ints(nil)
			w.Ints(nil)
		}), false},
	}
	for _, tc := range cases {
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Errorf("%s: decode panicked: %v", tc.name, p)
				}
			}()
			err := NewIRQController(2, false).DecodeState(enc.NewReader(tc.b))
			switch {
			case tc.ok && err != nil:
				t.Errorf("%s: %v", tc.name, err)
			case !tc.ok && err == nil:
				t.Errorf("%s: decoded without an error", tc.name)
			}
		}()
	}
}
