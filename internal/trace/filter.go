package trace

import (
	"repro/internal/mem"
	"repro/internal/vm"
)

// Source is the dynamic-instruction stream contract shared with the
// timing core: Next returns the next committed instruction, or
// ok == false once the program has ended. Replay and the core's own
// sources satisfy it.
type Source interface {
	Next() (vm.DynInst, bool)
}

// Limit caps a source at n instructions — the stream-level analogue of
// an instruction budget.
func Limit(s Source, n uint64) Source { return &limited{s: s, left: n} }

type limited struct {
	s    Source
	left uint64
}

func (l *limited) Next() (vm.DynInst, bool) {
	if l.left == 0 {
		return vm.DynInst{}, false
	}
	l.left--
	return l.s.Next()
}

// FilterL1 drains src through a standalone L1 filter model: every
// memory reference probes l1 and, on a miss, is inserted (fetch on
// miss). fn observes each reference with the filter's verdict. This is
// the shared miss-stream front end of the trace-analysis tools — the
// stream that reaches a prefetcher in the full timing model, minus
// timing.
func FilterL1(src Source, l1 *mem.Cache, fn func(d vm.DynInst, miss bool)) {
	for {
		d, ok := src.Next()
		if !ok {
			return
		}
		if !d.Op.IsMem() {
			continue
		}
		miss := !l1.Access(d.EffAddr)
		if miss {
			l1.Insert(d.EffAddr)
		}
		fn(d, miss)
	}
}
