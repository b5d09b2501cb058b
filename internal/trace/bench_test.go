package trace

import (
	"bytes"
	"io"
	"testing"
	"unsafe"

	"repro/internal/vm"
	"repro/internal/workload"
)

// benchStream records one real workload stream once per process.
var benchStream []vm.DynInst

// recordBytes is the decoded size of one record, the unit SetBytes
// reports throughput in.
const recordBytes = int64(unsafe.Sizeof(vm.DynInst{}))

func stream(b *testing.B) []vm.DynInst {
	b.Helper()
	if benchStream == nil {
		m := workload.All()[0].Build(1)
		for i := 0; i < 100_000; i++ {
			d, err := m.Step()
			if err != nil {
				break
			}
			benchStream = append(benchStream, d)
		}
	}
	return benchStream
}

func BenchmarkEncode(b *testing.B) {
	insts := stream(b)
	var buf bytes.Buffer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := writeTrace(&buf, Header{
			Workload: "bench", Count: uint64(len(insts)),
		}, insts); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(buf.Len())/float64(len(insts)), "bytes/inst")
	b.SetBytes(int64(len(insts)) * recordBytes)
}

func BenchmarkDecode(b *testing.B) {
	insts := stream(b)
	var buf bytes.Buffer
	if err := writeTrace(&buf, Header{
		Workload: "bench", Count: uint64(len(insts)),
	}, insts); err != nil {
		b.Fatal(err)
	}
	enc := buf.Bytes()
	b.ReportAllocs()
	b.SetBytes(int64(len(insts)) * recordBytes)
	for i := 0; i < b.N; i++ {
		dec, err := NewDecoder(bytes.NewReader(enc))
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		for {
			if _, err := dec.Next(); err == io.EOF {
				break
			} else if err != nil {
				b.Fatal(err)
			}
			n++
		}
		if n != len(insts) {
			b.Fatalf("decoded %d of %d records", n, len(insts))
		}
	}
}

// BenchmarkReplay measures the per-instruction cost of the zero-copy
// replay path — the inner loop every traced matrix cell pays instead
// of the interpreter.
func BenchmarkReplay(b *testing.B) {
	insts := stream(b)
	b.SetBytes(int64(len(insts)) * recordBytes)
	for i := 0; i < b.N; i++ {
		r := Replay{insts: insts}
		for {
			if _, ok := r.Next(); !ok {
				break
			}
		}
	}
}
