package results

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TestDiskEntryRoundTrip checks the checksummed frame decodes back to
// the same canonical rendering it encoded.
func TestDiskEntryRoundTrip(t *testing.T) {
	cfg := sim.Default()
	cfg.MaxInsts = 3_000
	cfg.CollectFig4 = true
	res := sim.Run(workload.All()[0], core.PSBConfPriority, cfg)
	got, err := DecodeEntry(EncodeEntry(res))
	if err != nil {
		t.Fatalf("decode(encode): %v", err)
	}
	if !bytes.Equal(Encode(got), Encode(res)) {
		t.Errorf("entry round-trip changed the rendered result")
	}
}

// FuzzDecodeDiskEntry asserts the entry decoder never panics and never
// accepts damaged framing: whatever bytes a torn write, bit rot, or an
// attacker with filesystem access leave behind, the store answers with
// a miss (and a quarantine), not a crash or a wrong result. Entries
// that do decode must re-encode decodably — the self-healing overwrite
// path depends on that.
func FuzzDecodeDiskEntry(f *testing.F) {
	valid := EncodeEntry(sim.Result{})
	f.Add(valid)
	f.Add(valid[:len(valid)/2])          // torn write
	f.Add(append([]byte(nil), valid...)) // mutated below by the engine
	f.Add([]byte(entryMagic))            // header only
	f.Add([]byte(entryMagic + "0000"))   // short checksum
	f.Add([]byte("{not an entry}"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		res, err := DecodeEntry(data)
		if err != nil {
			return
		}
		again, err := DecodeEntry(EncodeEntry(res))
		if err != nil {
			t.Fatalf("decoded entry did not re-encode decodably: %v", err)
		}
		if !bytes.Equal(Encode(again), Encode(res)) {
			t.Fatalf("re-encoded entry decoded to a different result")
		}
	})
}
