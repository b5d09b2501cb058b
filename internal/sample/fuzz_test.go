package sample

import (
	"reflect"
	"testing"
)

// FuzzDecodeCheckpoint: .psbckpt files cross process boundaries, so
// whatever bytes a torn write or bit rot leaves behind, Decode must
// answer with an error, never a panic. An accepted state must restore
// into a default-geometry executor or be refused with an error, and
// must survive a re-encode unchanged. Each input is also decoded with
// its checksum recomputed, so mutations reach the parser behind it.
func FuzzDecodeCheckpoint(f *testing.F) {
	insts := healthStream(f, 5_000)
	boot := bootFor(insts)
	fn := boot()
	fn.AdvanceTo(3_000)
	st := fn.Snapshot()
	k := testKey()
	data := Encode(k, st)
	f.Add(data)
	f.Add(data[:len(data)/2])
	f.Add(validLineStampZero(f, k, st))

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range [][]byte{data, resum(data)} {
			st, err := Decode(in, k)
			if err != nil {
				continue
			}
			_ = boot().Restore(st) // may refuse, must not panic
			again, err := Decode(Encode(k, st), k)
			if err != nil {
				t.Fatalf("re-encoded checkpoint rejected: %v", err)
			}
			if !reflect.DeepEqual(again, st) {
				t.Fatal("re-encoded checkpoint decodes to a different state")
			}
		}
	})
}
