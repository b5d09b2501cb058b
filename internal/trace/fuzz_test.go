package trace

// FuzzDecoder checks the loader's arbitrary-input contract: any byte
// string — truncated, bit-flipped, padded or adversarial — is either
// rejected with ErrCorrupt or accepted as a recording that replays
// cleanly. The seed corpus covers valid version-3 encodings of every
// record kind, a truncation, a copy with trailing bytes, a few corrupt
// headers and records, the retired version-1 and version-2 files, and
// a header claiming a huge record count for a program that spins on a
// JMP to itself, matching the repository's fuzz conventions (see
// internal/sim/fuzz_test.go).

import (
	"bytes"
	"errors"
	"os"
	"reflect"
	"testing"

	"repro/internal/vm"
)

func FuzzDecoder(f *testing.F) {
	// A genuine encoding of a stream with the empty record kinds (ALU
	// ops, JMP and JAL) and each kind that takes bytes: a load, a
	// store, a branch both ways and JALR.
	valid := encodeAll(f, Header{Workload: "fuzz", Seed: -3, MaxInsts: 5, Complete: true},
		progOf(f, callLoop(3)), record(f, callLoop(3), 0))
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
		progOf(f, countingLoop(1000)), record(f, countingLoop(1000), 2100)))
	// The retired formats: rejected like any other magic.
	for _, path := range []string{retiredFixture(1), retiredFixture(2)} {
		old, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(old)
	}
	// An outcome byte other than 0 or 1 on the first branch.
	_, p, off, err := parseHeader(valid)
	if err != nil {
		f.Fatal(err)
	}
	cur := cursor{data: valid[off:], prog: p, prev: p.start()}
	for d := make([]vm.DynInst, 1); ; {
		at := off + cur.off
		if err := cur.decode(d); err != nil {
			f.Fatal(err)
		}
		if d[0].Op.IsBranch() {
			branch := append([]byte(nil), valid...)
			branch[at] = 2
			f.Add(branch)
			break
		}
	}
	// A JMP to itself: each record takes its one loop byte. A header
	// that claims 2^40 records over no record bytes must fail before
	// anything is decoded or reserved for them.
	spin := encodeAll(f, Header{Workload: "spin", MaxInsts: 100}, progOf(f, spinLoop()), record(f, spinLoop(), 100))
	f.Add(spin)
	f.Add(appendHeader(nil, Header{Workload: "spin", MaxInsts: 1 << 40, Count: 1 << 40}, progOf(f, spinLoop())))

	f.Fuzz(func(t *testing.T, data []byte) {
		hdr, rec, err := parse(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("rejected with %v, want ErrCorrupt", err)
			}
			return
		}
		// The loader keeps the input's bytes, holds no more records
		// than maxEmptyRun+1 per record byte (and maxEmptyRun more),
		// and reserves marks only for the records it decoded, in
		// chunks of at most maxChunkRecords.
		for _, c := range rec.chunks {
			if c.n > maxChunkRecords || cap(c.marks) != (c.n+markEvery-1)/markEvery {
				t.Fatalf("a chunk of %d records reserves %d marks", c.n, cap(c.marks))
			}
		}
		if body, _, _ := held(rec); rec.prog.maxRun > maxEmptyRun || rec.n >= (body+1)*(maxEmptyRun+1) || body > len(data) {
			t.Fatalf("%d input bytes: %d records, %d record bytes, runs of %d empty records", len(data), rec.n, body, rec.prog.maxRun)
		}
		// An accepted file stores back to identical bytes.
		var buf bytes.Buffer
		if err := writeFile(&buf, hdr, &rec); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), data) {
			t.Fatalf("accepted file stores back as %d different bytes", buf.Len())
		}
		// Seeking from the nearest mark equals stepping one record at a
		// time.
		k := uint64(len(data)) % uint64(rec.n+1)
		batch := 1 + int(data[len(data)/2])%300
		ref := rec.replay()
		for i := uint64(0); i < k; i++ {
			next(ref)
		}
		want := drain(ref)
		if got := fill(rec.replay().From(k), batch); !reflect.DeepEqual(got, want) || len(want) != rec.n-int(k) {
			t.Fatalf("From(%d)+Fill(%d) gave %d records, stepping %d, of %d", k, batch, len(got), len(want), rec.n)
		}
	})
}
