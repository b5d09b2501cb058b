package trace

import (
	"testing"
	"unsafe"

	"repro/internal/vm"
	"repro/internal/workload"
)

// benchStream records one real workload stream once per process, and
// benchProg is the program it is coded against.
var (
	benchStream []vm.DynInst
	benchProg   *program
)

// recordBytes is the decoded size of one record, the unit SetBytes
// reports throughput in.
const recordBytes = int64(unsafe.Sizeof(vm.DynInst{}))

func stream(b *testing.B) []vm.DynInst {
	b.Helper()
	if benchStream == nil {
		w := workload.All()[0]
		benchProg = progOf(b, w.Build(1))
		benchStream = record(b, w.Build(1), 100_000)
	}
	return benchStream
}

// BenchmarkEncode measures the recorder's encoding of a stream to
// record bytes.
func BenchmarkEncode(b *testing.B) {
	insts := stream(b)
	rec := recording{prog: benchProg}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rec = recording{prog: benchProg, data: rec.data[:0], marks: rec.marks[:0]}
		for j := range insts {
			if err := rec.append(&insts[j]); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(len(rec.data))/float64(len(insts)), "bytes/inst")
	b.SetBytes(int64(len(insts)) * recordBytes)
}

// BenchmarkDecode measures loading a .psbtrace file: validating every
// record and building the seek marks.
func BenchmarkDecode(b *testing.B) {
	insts := stream(b)
	enc := encodeAll(b, Header{Workload: "bench"}, benchProg, insts)
	b.ReportAllocs()
	b.SetBytes(int64(len(insts)) * recordBytes)
	for i := 0; i < b.N; i++ {
		if _, rec, err := parse(enc); err != nil || rec.n != len(insts) {
			b.Fatalf("loaded %d of %d records: %v", rec.n, len(insts), err)
		}
	}
}

// BenchmarkReplay measures the per-instruction cost of replay — batch
// decoding through Fill, the inner loop every traced matrix cell pays
// instead of the interpreter.
func BenchmarkReplay(b *testing.B) {
	insts := stream(b)
	_, rec, err := parse(encodeAll(b, Header{Workload: "bench"}, benchProg, insts))
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]vm.DynInst, 256)
	b.SetBytes(int64(len(insts)) * recordBytes)
	for i := 0; i < b.N; i++ {
		r := rec.replay()
		for r.Fill(buf) > 0 {
		}
	}
}
