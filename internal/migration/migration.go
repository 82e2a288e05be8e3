// Package migration models pre-copy VM live migration — the paper's stated
// future work ("we plan to incorporate migration latency and impact to
// application's execution time similar to [Akoush et al. 2010]"). It
// estimates, for a VM of a given memory size on a given link, how many
// pre-copy rounds run, how much traffic is actually transferred (the
// simulator's memory-size estimate times an amplification factor), how long
// the migration takes, and how long the VM is paused (downtime).
package migration

import "fmt"

// Model parameterizes the pre-copy loop.
type Model struct {
	// DirtyRateGBps is the rate at which the workload dirties memory.
	DirtyRateGBps float64
	// BandwidthGBps is the migration link rate.
	BandwidthGBps float64
	// StopThresholdGB ends pre-copy when the remaining dirty set is this
	// small (then stop-and-copy runs). Zero selects 0.0625 GB (64 MB).
	StopThresholdGB float64
	// MaxRounds bounds the pre-copy loop (zero selects 30), after which
	// the remaining set is stop-and-copied regardless.
	MaxRounds int
}

// DefaultModel returns a typical setup: a moderately busy VM (0.1 GB/s
// dirty rate) on a 10 Gb/s migration flow (1.25 GB/s).
func DefaultModel() Model {
	return Model{DirtyRateGBps: 0.1, BandwidthGBps: 1.25}
}

func (m Model) stopThreshold() float64 {
	if m.StopThresholdGB <= 0 {
		return 0.0625
	}
	return m.StopThresholdGB
}

func (m Model) maxRounds() int {
	if m.MaxRounds <= 0 {
		return 30
	}
	return m.MaxRounds
}

// Validate reports model errors.
func (m Model) Validate() error {
	if m.DirtyRateGBps < 0 {
		return fmt.Errorf("migration: negative dirty rate %v", m.DirtyRateGBps)
	}
	if m.BandwidthGBps <= 0 {
		return fmt.Errorf("migration: non-positive bandwidth %v", m.BandwidthGBps)
	}
	return nil
}

// Result describes one migration.
type Result struct {
	// Rounds is the number of pre-copy rounds (excluding stop-and-copy).
	Rounds int
	// TransferredGB is the total bytes moved, including re-sent dirty
	// pages.
	TransferredGB float64
	// Amplification is TransferredGB over the VM's memory size.
	Amplification float64
	// DurationSec is the total migration time.
	DurationSec float64
	// DowntimeSec is the stop-and-copy pause.
	DowntimeSec float64
	// Converged is false when MaxRounds ended pre-copy with the dirty set
	// still above the threshold (dirty rate >= bandwidth).
	Converged bool
}

// Migrate runs the pre-copy recurrence for a VM of memGB memory.
func (m Model) Migrate(memGB float64) (Result, error) {
	if err := m.Validate(); err != nil {
		return Result{}, err
	}
	if memGB <= 0 {
		return Result{}, fmt.Errorf("migration: non-positive memory %v", memGB)
	}
	ratio := m.DirtyRateGBps / m.BandwidthGBps
	res := Result{Converged: true}
	remaining := memGB
	for {
		// Transfer the current dirty set; pages dirtied meanwhile form the
		// next round's set.
		t := remaining / m.BandwidthGBps
		res.TransferredGB += remaining
		res.DurationSec += t
		next := remaining * ratio
		if next <= m.stopThreshold() {
			remaining = next
			break
		}
		res.Rounds++
		if res.Rounds >= m.maxRounds() {
			res.Converged = false
			remaining = next
			break
		}
		remaining = next
	}
	// Stop-and-copy the final dirty set.
	res.DowntimeSec = remaining / m.BandwidthGBps
	res.TransferredGB += remaining
	res.DurationSec += res.DowntimeSec
	res.Amplification = res.TransferredGB / memGB
	return res, nil
}
