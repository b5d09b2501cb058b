package trace

// FuzzDecoder checks the loader's arbitrary-input contract: any byte
// string — truncated, bit-flipped, padded or adversarial — is either
// rejected with ErrCorrupt or accepted as a recording that replays
// cleanly. The seed corpus covers valid version-2 encodings, a
// truncation, a copy with trailing bytes, a few corrupt headers, a
// version-1 file and a corrupt record, matching the repository's fuzz
// conventions (see internal/sim/fuzz_test.go).

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func FuzzDecoder(f *testing.F) {
	// A genuine encoding of a stream with every record kind (ALU, load,
	// store, a branch both ways, JMP, JAL and JALR) and both flag bits:
	// the first record's PC breaks from the zero delta context.
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
	// The retired version-1 format: rejected like any other magic.
	v1, err := os.ReadFile(filepath.Join("testdata", "health-seed1-n2000.psbtrace"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(v1)
	// A taken bit on a record whose instruction (the first, an ALU op)
	// cannot leave the fall-through path.
	_, _, off, err := parseHeader(valid)
	if err != nil {
		f.Fatal(err)
	}
	taken := append([]byte(nil), valid...)
	taken[off] |= flagTaken
	f.Add(taken)

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
		marks := 0
		for _, c := range rec.chunks {
			marks += cap(c.marks)
		}
		if body, _, _ := held(rec); rec.n > len(data)/minRecordBytes || marks > rec.n/markEvery+1 || body > len(data) {
			t.Fatalf("%d input bytes: %d records, %d marks reserved, %d record bytes",
				len(data), rec.n, marks, body)
		}
		// An accepted file stores back to identical bytes.
		var buf bytes.Buffer
		if err := writeFile(&buf, hdr, &rec); err != nil {
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
