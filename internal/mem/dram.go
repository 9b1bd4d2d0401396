package mem

// DRAM models the single shared memory controller of §VI-B1: accesses are
// spread over banks, each bank has an open row (row-buffer), and latency is
// a function of recent and outstanding requests — a row hit is much cheaper
// than a row miss, and busy banks queue. This is precisely why the paper
// does not build a DO variant for DRAM: making this path oblivious would
// require forgoing the row buffer entirely (§VI-B2).
type DRAM struct {
	cfg      DRAMConfig
	openRow  []uint64
	rowValid []bool
	bankBusy []uint64
	queue    []uint64 // completion times of in-flight requests

	// Stats.
	Accesses  uint64
	RowHits   uint64
	RowMisses uint64
	QueueWait uint64
}

// NewDRAM returns a controller with the given configuration.
func NewDRAM(cfg DRAMConfig) *DRAM {
	return &DRAM{
		cfg:      cfg,
		openRow:  make([]uint64, cfg.Banks),
		rowValid: make([]bool, cfg.Banks),
		bankBusy: make([]uint64, cfg.Banks),
		queue:    make([]uint64, 0, cfg.QueueEntries),
	}
}

func (d *DRAM) bank(addr uint64) int {
	// Interleave rows across banks.
	return int(addr/uint64(d.cfg.RowBytes)) % d.cfg.Banks
}

func (d *DRAM) row(addr uint64) uint64 { return addr / uint64(d.cfg.RowBytes) }

// Access schedules a read/write of addr arriving at the controller at time
// now and returns its completion time.
func (d *DRAM) Access(now uint64, addr uint64) (done uint64) {
	d.Accesses++
	start := now
	// Controller queue: if too many requests are in flight, wait for one
	// to drain.
	live := d.queue[:0]
	for _, t := range d.queue {
		if t > start {
			live = append(live, t)
		}
	}
	d.queue = live
	for len(d.queue) >= d.cfg.QueueEntries {
		min := d.queue[0]
		for _, t := range d.queue {
			if t < min {
				min = t
			}
		}
		d.QueueWait += min - start
		start = min
		live = d.queue[:0]
		for _, t := range d.queue {
			if t > start {
				live = append(live, t)
			}
		}
		d.queue = live
	}

	b := d.bank(addr)
	if d.bankBusy[b] > start {
		start = d.bankBusy[b]
	}
	row := d.row(addr)
	lat := d.cfg.RowMissLat
	if d.rowValid[b] && d.openRow[b] == row {
		lat = d.cfg.RowHitLat
		d.RowHits++
	} else {
		d.RowMisses++
	}
	d.openRow[b] = row
	d.rowValid[b] = true
	d.bankBusy[b] = start + d.cfg.BurstCycles
	done = start + lat
	d.queue = append(d.queue, done)
	return done
}
