package vm_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"testing"

	"repro/internal/cpu"
	"repro/internal/vm"
	"repro/internal/workload"
)

// streamLen is how many records of each workload TestStreamDigests
// pins.
const streamLen = 200_000

// streamDigests are SHA-256 digests over every field of the first
// streamLen records Step yields for each workload at seed 1, computed
// with the interpreter that decoded each instruction on every step.
var streamDigests = map[string]string{
	"health":    "cc5a99dc8d789983690946e42a20e32ee49a4616510e7e76b2e839b394f1f2d1",
	"burg":      "25070f5e28761417877d2a03359f3accc530fce14027dc2a1acda130a18acec2",
	"deltablue": "d672af88bfb18db7871662b91c5521ff3f791f84669db8ec556d836915d7bec6",
	"gs":        "c86f9faafdc814f6f448fddf4084f2ec6498d403e107d9ae0760eb87a8b45564",
	"sis":       "155fbaa72785677be135001712b51f7cff59a34020074920f9c802e514447e4b",
	"turb3d":    "f838ffa7996db2f05b3f3bd6cc041aa4ac167aa3ab94d62744c05a10576925ac",
}

// hashRecord feeds every field of d to h in a fixed layout.
func hashRecord(h hash.Hash, d *vm.DynInst) {
	var b [30]byte
	binary.LittleEndian.PutUint64(b[0:], d.PC)
	binary.LittleEndian.PutUint64(b[8:], d.EffAddr)
	binary.LittleEndian.PutUint64(b[16:], d.NextPC)
	b[24], b[25], b[26], b[27], b[28] = byte(d.Op), byte(d.Rd), byte(d.Rs1), byte(d.Rs2), d.MemSize
	if d.Taken {
		b[29] = 1
	}
	h.Write(b[:])
}

// digest hashes the first streamLen records fill yields; fill writes
// the next records into dst and returns how many it wrote.
func digest(t *testing.T, name string, fill func(dst []vm.DynInst) int) string {
	t.Helper()
	h := sha256.New()
	buf := make([]vm.DynInst, 300)
	for n, i := 0, 0; n < streamLen; i++ {
		// Odd batch sizes, so batches end anywhere in the stream.
		k := fill(buf[:min(1+i*37%len(buf), streamLen-n)])
		if k == 0 {
			t.Fatalf("%s: the stream ended after %d records", name, n)
		}
		for j := range buf[:k] {
			hashRecord(h, &buf[j])
		}
		n += k
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestStreamDigests pins the functional interpreter: the records Step
// yields for each of the six workloads hash to the digests the
// interpreter produced before it was predecoded, and StepInto and the
// live source's batch path (cpu.MachineSource.Fill) yield the same
// records.
func TestStreamDigests(t *testing.T) {
	for _, w := range workload.All() {
		step, into := w.Build(1), w.Build(1)
		sources := map[string]func(dst []vm.DynInst) int{
			"Step": func(dst []vm.DynInst) int {
				d, err := step.Step()
				if err != nil {
					t.Fatalf("%s: Step: %v", w.Name, err)
				}
				dst[0] = d
				return 1
			},
			"StepInto": func(dst []vm.DynInst) int {
				for i := range dst {
					if err := into.StepInto(&dst[i]); err != nil {
						t.Fatalf("%s: StepInto: %v", w.Name, err)
					}
				}
				return len(dst)
			},
			"MachineSource.Fill": cpu.MachineSource{M: w.Build(1)}.Fill,
		}
		for how, fill := range sources {
			if got, want := digest(t, w.Name, fill), streamDigests[w.Name]; got != want {
				t.Errorf("%s: the first %d records %s yields hash to %s, want %s", w.Name, streamLen, how, got, want)
			}
		}
	}
}
