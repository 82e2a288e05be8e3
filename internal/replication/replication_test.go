package replication

import (
	"math"
	"testing"
	"time"
)

func TestValidate(t *testing.T) {
	good := Config{Mode: Hot, MemGB: 32, DirtyRateGBps: 0.05}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []Config{
		{Mode: Mode(9), MemGB: 1},
		{Mode: Hot, MemGB: 0},
		{Mode: Hot, MemGB: 1, DirtyRateGBps: -1},
		{Mode: Hot, MemGB: 1, Replicas: -1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	if Hot.String() != "hot" || Cold.String() != "cold" {
		t.Error("mode strings")
	}
}

func TestHotTraffic(t *testing.T) {
	c := Config{Mode: Hot, MemGB: 32, DirtyRateGBps: 0.01}
	// 1 hour: seed 32 GB + 0.01*3600 = 36 GB -> 68 GB.
	got, err := c.TrafficGB(time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-68) > 1e-9 {
		t.Errorf("hot traffic = %v, want 68", got)
	}
	// Two replicas double it.
	c.Replicas = 2
	got, err = c.TrafficGB(time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-136) > 1e-9 {
		t.Errorf("2-replica traffic = %v, want 136", got)
	}
}

func TestColdTraffic(t *testing.T) {
	// Checkpoint hourly; dirty 0.01 GB/s writes 36 GB/h over a 32 GB
	// working set, so the unique dirty set saturates near the full memory:
	// 32*(1-exp(-36/32)) = 21.6 GB per checkpoint.
	c := Config{Mode: Cold, MemGB: 32, DirtyRateGBps: 0.01, CheckpointInterval: time.Hour}
	got, err := c.TrafficGB(4 * time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	per := 32 * (1 - math.Exp(-36.0/32))
	want := 32 + 4*per
	if math.Abs(got-want) > 1e-6 {
		t.Errorf("cold traffic = %v, want %v", got, want)
	}
	// An unset checkpoint interval defaults to hourly.
	c.CheckpointInterval = 0
	if dflt, err := c.TrafficGB(4 * time.Hour); err != nil || dflt != got {
		t.Errorf("default-interval cold traffic = %v (%v), want the hourly %v", dflt, err, got)
	}
	// A lightly-dirtying VM ships roughly its raw delta (no saturation).
	c.DirtyRateGBps = 0.0001 // 0.36 GB/h
	got, err = c.TrafficGB(4 * time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-(32+4*0.358)) > 0.05 {
		t.Errorf("light cold traffic = %v, want ~33.4", got)
	}
	// Cold is always cheaper than hot for the same workload.
	hot := Config{Mode: Hot, MemGB: 32, DirtyRateGBps: 0.01}
	cold := Config{Mode: Cold, MemGB: 32, DirtyRateGBps: 0.01, CheckpointInterval: time.Hour}
	hotGB, _ := hot.TrafficGB(24 * time.Hour)
	coldGB, _ := cold.TrafficGB(24 * time.Hour)
	if coldGB >= hotGB {
		t.Errorf("cold %v should undercut hot %v", coldGB, hotGB)
	}
}

func TestTrafficErrors(t *testing.T) {
	c := Config{Mode: Hot, MemGB: 32}
	if _, err := c.TrafficGB(0); err == nil {
		t.Error("zero period should error")
	}
	if _, err := (Config{Mode: Hot}).TrafficGB(time.Hour); err == nil {
		t.Error("invalid config should error")
	}
}

func TestBreakEvenMoves(t *testing.T) {
	// Hot standby of a 32 GB VM dirtying 0.005 GB/s over a week:
	// 32 + 0.005*604800 = 3056 GB x 1 replica.
	c := Config{Mode: Hot, MemGB: 32, DirtyRateGBps: 0.005}
	moves, err := c.BreakEvenMoves(7*24*time.Hour, 35) // ~35 GB per move
	if err != nil {
		t.Fatal(err)
	}
	// 3056/35 ~ 87: replication only wins if the app would otherwise
	// migrate ~90 times a week.
	if moves < 60 || moves > 120 {
		t.Errorf("break-even moves = %v, want ~87", moves)
	}
	if _, err := c.BreakEvenMoves(time.Hour, 0); err == nil {
		t.Error("zero per-move traffic should error")
	}
	if _, err := (Config{Mode: Hot}).BreakEvenMoves(time.Hour, 1); err == nil {
		t.Error("invalid config should error")
	}
}
