// Package replication models hot/cold standby replication — the other
// mechanism §3 names for running applications across multiple VB sites
// ("such applications must rely on either hot/cold standbys using
// continuous replication or migration"). It quantifies the trade the
// scheduler navigates: continuous replication pays steady WAN bandwidth
// all the time but fails over instantly; migration pays bursty traffic
// only when power forces a move.
package replication

import (
	"fmt"
	"math"
	"time"
)

// Mode selects a standby strategy.
type Mode int

// Standby modes.
const (
	// Hot keeps a continuously synchronized replica: steady dirty-page
	// stream, near-zero failover time.
	Hot Mode = iota
	// Cold keeps a periodic checkpoint: bursts every interval, failover
	// loses the work since the last checkpoint and must restore.
	Cold
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	if m == Hot {
		return "hot"
	}
	return "cold"
}

// Config describes a replicated application.
type Config struct {
	Mode Mode
	// MemGB is the working-set size replicated.
	MemGB float64
	// DirtyRateGBps is the rate the primary dirties state.
	DirtyRateGBps float64
	// CheckpointInterval applies to Cold mode (zero selects 1 h).
	CheckpointInterval time.Duration
	// Replicas is the number of standby copies (zero selects 1).
	Replicas int
}

func (c Config) interval() time.Duration {
	if c.CheckpointInterval <= 0 {
		return time.Hour
	}
	return c.CheckpointInterval
}

func (c Config) replicas() int {
	if c.Replicas <= 0 {
		return 1
	}
	return c.Replicas
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Mode != Hot && c.Mode != Cold {
		return fmt.Errorf("replication: unknown mode %d", int(c.Mode))
	}
	if c.MemGB <= 0 {
		return fmt.Errorf("replication: non-positive memory %v", c.MemGB)
	}
	if c.DirtyRateGBps < 0 {
		return fmt.Errorf("replication: negative dirty rate %v", c.DirtyRateGBps)
	}
	if c.Replicas < 0 {
		return fmt.Errorf("replication: negative replica count %d", c.Replicas)
	}
	return nil
}

// TrafficGB returns the WAN bytes replication sends over the given period:
// hot mode streams every dirtied byte to every replica; cold mode ships the
// *unique* dirty set each checkpoint interval (overlapping writes to the
// same page coalesce, so the set saturates at M*(1-exp(-D*t/M)) for memory
// M and dirty rate D), plus the initial seed copy.
func (c Config) TrafficGB(period time.Duration) (float64, error) {
	if err := c.Validate(); err != nil {
		return 0, err
	}
	if period <= 0 {
		return 0, fmt.Errorf("replication: non-positive period %v", period)
	}
	n := float64(c.replicas())
	switch c.Mode {
	case Hot:
		return n * (c.MemGB + c.DirtyRateGBps*period.Seconds()), nil
	default:
		dirtied := c.DirtyRateGBps * c.interval().Seconds()
		perCheckpoint := c.MemGB * (1 - math.Exp(-dirtied/c.MemGB))
		checkpoints := float64(period / c.interval())
		return n * (c.MemGB + perCheckpoint*checkpoints), nil
	}
}

// BreakEvenMoves returns how many migrations of the same application over
// the period cost as much WAN traffic as keeping the standby, given the
// per-move bytes (memory x amplification). Fewer actual moves than this
// favors migration; more favors replication.
func (c Config) BreakEvenMoves(period time.Duration, perMoveGB float64) (float64, error) {
	if perMoveGB <= 0 {
		return 0, fmt.Errorf("replication: non-positive per-move traffic %v", perMoveGB)
	}
	repl, err := c.TrafficGB(period)
	if err != nil {
		return 0, err
	}
	return repl / perMoveGB, nil
}
