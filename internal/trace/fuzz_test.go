package trace

// FuzzDecoder checks the loader's arbitrary-input contract: any byte
// string — truncated, bit-flipped, padded or adversarial — is either
// rejected with ErrCorrupt or accepted as a recording that replays
// cleanly. The seed corpus covers valid encodings, a truncation, a
// copy with trailing bytes and a few corrupt headers, matching the
// repository's fuzz conventions (see internal/sim/fuzz_test.go).

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"repro/internal/vm"
)

func FuzzDecoder(f *testing.F) {
	// A genuine encoding (synthetic stream touching every flag path).
	insts := []vm.DynInst{
		{PC: 0, NextPC: 4, Op: 1},
		{PC: 4, NextPC: 8, Op: 2, Rd: 1, Rs1: 2, Rs2: 3},
		{PC: 8, NextPC: 64, Op: 3, Taken: true},
		{PC: 64, NextPC: 68, Op: 4, MemSize: 8, EffAddr: 0x7000},
		{PC: 100, NextPC: 104, Op: 4, MemSize: 4, EffAddr: 0x10},
	}
	valid := encodeAll(f, Header{Workload: "fuzz", Seed: -3, MaxInsts: 5, Complete: true}, insts)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:len(Magic)+1])
	f.Add(append(append([]byte(nil), valid...), "trailing+11"...))
	// A header flag bit the writer never sets: the loader must refuse
	// it, or the file would not store back to identical bytes.
	odd := append([]byte(nil), valid...)
	odd[len(Magic)] |= 2
	f.Add(odd)
	f.Add([]byte(Magic))
	f.Add([]byte("PSBTRC99garbage"))
	f.Add([]byte{})
	// A stream past two marks, so seeking starts from one.
	f.Add(encodeAll(f, Header{Workload: "loop", Seed: 1, MaxInsts: 2100},
		record(f, countingLoop(1000), 2100)))

	f.Fuzz(func(t *testing.T, data []byte) {
		hdr, rec, err := parse(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("rejected with %v, want ErrCorrupt", err)
			}
			return
		}
		// The loader keeps the input's bytes and reserves marks only
		// for the records those bytes can hold, whatever Count claims.
		if rec.n > len(data)/minRecordBytes || cap(rec.marks) > rec.n/markEvery+1 || len(rec.data) > len(data) {
			t.Fatalf("%d input bytes: %d records, %d marks reserved, %d record bytes",
				len(data), rec.n, cap(rec.marks), len(rec.data))
		}
		// An accepted file stores back to identical bytes.
		var buf bytes.Buffer
		if err := writeFile(&buf, hdr, rec.data); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), data) {
			t.Fatalf("accepted file stores back as %d different bytes", buf.Len())
		}
		// Seeking from the nearest mark equals stepping with Next.
		k := uint64(len(data)) % uint64(rec.n+1)
		batch := 1 + int(data[len(data)/2])%300
		ref := rec.replay()
		for i := uint64(0); i < k; i++ {
			ref.Next()
		}
		want := drain(ref)
		if got := fill(rec.replay().From(k), batch); !reflect.DeepEqual(got, want) || len(want) != rec.n-int(k) {
			t.Fatalf("From(%d)+Fill(%d) gave %d records, Next %d, of %d", k, batch, len(got), len(want), rec.n)
		}
	})
}
