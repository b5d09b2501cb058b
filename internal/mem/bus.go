package mem

// Bus models a shared, non-pipelined transfer link: one transaction at
// a time, fixed bytes-per-cycle bandwidth. Both the L1↔L2 bus
// (8 B/cycle in the paper) and the L2↔memory bus (4 B/cycle) are Buses.
type Bus struct {
	bytesPerCycle int
	busyUntil     uint64
	busyCycles    uint64
}

// NewBus returns a bus with the given bandwidth.
func NewBus(bytesPerCycle int) *Bus {
	if bytesPerCycle <= 0 {
		panic("mem: bus bandwidth must be positive")
	}
	return &Bus{bytesPerCycle: bytesPerCycle}
}

// TransferCycles returns how many cycles moving n bytes occupies.
func (b *Bus) TransferCycles(n int) uint64 {
	return uint64((n + b.bytesPerCycle - 1) / b.bytesPerCycle)
}

// FreeAt reports whether the bus is idle at the start of cycle.
// The paper gates stream-buffer prefetches on this condition.
func (b *Bus) FreeAt(cycle uint64) bool { return cycle >= b.busyUntil }

// BusyUntil returns the first cycle at which the bus will be idle.
func (b *Bus) BusyUntil() uint64 { return b.busyUntil }

// Acquire reserves the bus for an n-byte transfer requested at cycle.
// The transfer starts when the bus frees (start) and completes at done.
func (b *Bus) Acquire(cycle uint64, n int) (start, done uint64) {
	start = cycle
	if b.busyUntil > start {
		start = b.busyUntil
	}
	done = start + b.TransferCycles(n)
	b.busyUntil = done
	b.busyCycles += done - start
	return start, done
}

// BusyCycles returns the cumulative cycles the bus spent transferring.
func (b *Bus) BusyCycles() uint64 { return b.busyCycles }

// Utilization returns the fraction of elapsed cycles the bus was busy.
func (b *Bus) Utilization(elapsed uint64) float64 {
	if elapsed == 0 {
		return 0
	}
	u := float64(b.busyCycles) / float64(elapsed)
	if u > 1 {
		u = 1
	}
	return u
}

// Pipeline models a fixed-latency, partially-pipelined unit: the
// paper's L2 is "pipelined three accesses deep" with a 12-cycle
// latency, i.e. a new access may begin every latency/depth cycles.
type Pipeline struct {
	latency  uint64
	interval uint64 // initiation interval
	nextSlot uint64
}

// NewPipeline builds a pipeline with the given total latency and depth.
func NewPipeline(latency uint64, depth int) *Pipeline {
	if latency == 0 || depth <= 0 {
		panic("mem: pipeline needs positive latency and depth")
	}
	ii := latency / uint64(depth)
	if ii == 0 {
		ii = 1
	}
	return &Pipeline{latency: latency, interval: ii}
}

// Start admits an access requested at cycle and returns when it begins
// and when its result is available.
func (p *Pipeline) Start(cycle uint64) (start, done uint64) {
	start = cycle
	if p.nextSlot > start {
		start = p.nextSlot
	}
	p.nextSlot = start + p.interval
	return start, start + p.latency
}
