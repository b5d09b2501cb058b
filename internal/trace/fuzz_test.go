package trace

// FuzzDecoder checks the decoder's arbitrary-input contract: any byte
// string — truncated, bit-flipped, or adversarial — yields an error or
// a finite record stream, never a panic or an unbounded allocation.
// The seed corpus covers a valid encoding, its truncations, and a few
// corrupt headers, matching the repository's fuzz conventions (see
// internal/sim/fuzz_test.go).

import (
	"bytes"
	"slices"
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
	var buf bytes.Buffer
	if err := writeTrace(&buf, Header{
		Workload: "fuzz", Seed: -3, MaxInsts: 5, Count: 5, Complete: true,
	}, insts); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:len(Magic)+1])
	f.Add([]byte(Magic))
	f.Add([]byte("PSBTRC99garbage"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		dec, err := NewDecoder(bytes.NewReader(data))
		if err != nil {
			return
		}
		var got []vm.DynInst
		for {
			d, err := dec.Next()
			if err != nil {
				// The error must be sticky: a caller that keeps pulling
				// must not spin or revive the stream.
				if _, err2 := dec.Next(); err2 != err {
					t.Fatalf("error not sticky: %v then %v", err, err2)
				}
				break
			}
			// The record count is bounded by the header's Count, which a
			// hostile header can inflate, but each record consumes at
			// least minRecordBytes input bytes — so decoding always
			// terminates. Guard anyway so a logic bug fails fast
			// instead of spinning.
			if got = append(got, d); len(got) > len(data) {
				t.Fatalf("decoded more records (%d) than input bytes (%d)", len(got), len(data))
			}
		}

		// ReadAll reserves its slice once, from the header's Count: it
		// must claim no more records than the input can hold, and must
		// decode exactly what Next did.
		dec, err = NewDecoder(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("second NewDecoder over the same input: %v", err)
		}
		all, _ := dec.ReadAll(int64(len(data)))
		if cap(all) > len(data)/minRecordBytes {
			t.Fatalf("ReadAll reserved %d records for %d input bytes", cap(all), len(data))
		}
		if !slices.Equal(all, got) {
			t.Fatalf("ReadAll decoded %d records, Next %d", len(all), len(got))
		}
	})
}
