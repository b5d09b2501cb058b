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
// sealed chunks.
func BenchmarkEncode(b *testing.B) {
	insts := stream(b)
	var rec recording
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rec = recordAll(b, benchProg, insts)
	}
	data, _, _ := held(rec)
	b.ReportMetric(float64(data)/float64(len(insts)), "bytes/inst")
	b.SetBytes(int64(len(insts)) * recordBytes)
}

// BenchmarkRecord measures what a cache miss costs per instruction on
// each workload: building the guest machine, stepping it and recording
// 1M records into chunks.
func BenchmarkRecord(b *testing.B) {
	const n = 1_000_000
	for _, w := range workload.All() {
		b.Run(w.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var c Cache
				if _, err := c.Source(Key{Workload: w.Name, Seed: 1, MaxInsts: n}, n, "",
					func() *vm.Machine { return w.Build(1) }); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/inst")
		})
	}
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
