package pipeline

// Interval statistics (the time-series view of Stats): with sampling
// enabled, the core snapshots the cumulative counters every K cycles and
// hands the per-interval delta — plus average ROB/LQ occupancy over the
// interval — to a callback. The deltas partition the run exactly: summing
// every sample's Delta reproduces the cumulative Stats accrued since
// sampling was enabled (tested in interval_test.go), so warmup exclusion
// and interval decomposition cannot drift apart.
//
// The collector also maintains run-level ROB and LQ occupancy histograms
// (OccupancyBuckets equal-width buckets over each structure's capacity),
// fed once per cycle while sampling is enabled.

// OccupancyBuckets is the number of equal-width buckets in the ROB/LQ
// occupancy histograms.
const OccupancyBuckets = 8

// IntervalSample is one interval's statistics.
type IntervalSample struct {
	// Cycle is the cycle count at the end of the interval (monotonically
	// increasing across samples).
	Cycle uint64
	// Delta holds the counters accrued during this interval only
	// (cur.Sub(prev), so every Stats field participates).
	Delta Stats
	// AvgROBOcc and AvgLQOcc are the mean ROB / load-queue occupancy over
	// the interval's cycles.
	AvgROBOcc, AvgLQOcc float64
}

// intervalState is the per-core collector.
type intervalState struct {
	every     uint64 // 0: disabled
	fn        func(IntervalSample)
	last      Stats  // cumulative stats at the previous boundary
	lastCycle uint64 // cycle of the previous boundary
	robOccSum uint64
	lqOccSum  uint64
	robHist   [OccupancyBuckets]uint64
	lqHist    [OccupancyBuckets]uint64
}

// EnableIntervalSampling starts interval statistics: every `every` cycles
// the per-interval Stats delta is delivered to fn. Call after warmup so
// the series covers exactly the measurement window; call FlushInterval
// after the run to emit the trailing partial interval. Sampling costs two
// counter additions per cycle and one Stats copy per interval; with
// every == 0 it is disabled entirely.
func (c *Core) EnableIntervalSampling(every uint64, fn func(IntervalSample)) {
	c.interval = intervalState{every: every, fn: fn, last: c.stats, lastCycle: c.cycle}
}

// sampleInterval accounts the current occupancy for n cycles: 1 from Step,
// a stalled span from skipAhead (which stops short of interval boundaries).
func (c *Core) sampleInterval(n uint64) {
	iv := &c.interval
	rob := c.tailSeq - c.headSeq
	lq := uint64(c.lq.n)
	iv.robOccSum += n * rob
	iv.lqOccSum += n * lq
	iv.robHist[occBucket(rob, uint64(c.cfg.ROBSize))] += n
	iv.lqHist[occBucket(lq, uint64(c.cfg.LQSize))] += n
	if c.cycle-iv.lastCycle >= iv.every {
		c.emitInterval()
	}
}

// emitInterval closes the current interval and delivers it.
func (c *Core) emitInterval() {
	iv := &c.interval
	cycles := c.cycle - iv.lastCycle
	if cycles == 0 {
		return
	}
	s := IntervalSample{
		Cycle:     c.cycle,
		Delta:     c.stats.Sub(iv.last),
		AvgROBOcc: float64(iv.robOccSum) / float64(cycles),
		AvgLQOcc:  float64(iv.lqOccSum) / float64(cycles),
	}
	iv.last = c.stats
	iv.lastCycle = c.cycle
	iv.robOccSum, iv.lqOccSum = 0, 0
	if iv.fn != nil {
		iv.fn(s)
	}
}

// FlushInterval emits the trailing partial interval (if any cycles have
// accrued since the last boundary), so the sample deltas always sum to
// the full measurement window.
func (c *Core) FlushInterval() {
	if c.interval.every != 0 {
		c.emitInterval()
	}
}

// OccupancyHistograms returns the run-level ROB and load-queue occupancy
// histograms gathered while interval sampling was enabled: bucket i
// counts cycles with occupancy in [i, i+1)·capacity/OccupancyBuckets.
func (c *Core) OccupancyHistograms() (rob, lq [OccupancyBuckets]uint64) {
	return c.interval.robHist, c.interval.lqHist
}

// occBucket maps an occupancy in [0, cap] to a histogram bucket.
func occBucket(occ, capacity uint64) int {
	if capacity == 0 {
		return 0
	}
	b := int(occ * OccupancyBuckets / (capacity + 1))
	if b >= OccupancyBuckets {
		b = OccupancyBuckets - 1
	}
	return b
}
