package serve

import (
	"testing"

	"repro/internal/sim"
)

// FuzzDecodeJobRequest asserts the request decode-and-validate path
// never panics: whatever bytes arrive at POST /v1/sim, the server
// answers with an error or a job list, not a crash. Expansion through
// Jobs exercises the benchmark/scheme resolution and the full
// sim.Config.Validate chain on attacker-shaped configurations.
func FuzzDecodeJobRequest(f *testing.F) {
	f.Add([]byte(`{"bench":"health","scheme":"ConfAlloc-Priority"}`))
	f.Add([]byte(`{"bench":"all","schemes":["all"]}`))
	f.Add([]byte(`{"bench":"turb3d","scheme":"None","insts":60000,"seed":7,"l1_size":8192,"l1_ways":2,"nodis":true,"collect_fig4":true}`))
	f.Add([]byte(`{"bench":"health","scheme":"None","l1_size":-1}`))
	f.Add([]byte(`{"bench":"health","scheme":"None"} {}`))
	f.Add([]byte(`{"jobs":[{"bench":"health","scheme":"None"}]}`))
	f.Add([]byte(`{"name":"fig5","insts":2000,"csv":true}`))
	f.Add([]byte(`nonsense`))
	f.Add([]byte(``))
	f.Fuzz(func(t *testing.T, data []byte) {
		base := sim.Default()
		if req, err := DecodeJobRequest(data); err == nil {
			if jobs, err := req.Jobs(base); err == nil && len(jobs) == 0 {
				t.Fatalf("Jobs returned neither jobs nor an error for %q", data)
			}
		}
		if req, err := DecodeBatchRequest(data); err == nil {
			for _, jr := range req.Jobs {
				jr.Jobs(base)
			}
		}
		DecodeArtifactRequest(data)
	})
}
