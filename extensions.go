package vb

import (
	"fmt"
	"time"

	"github.com/vbcloud/vb/internal/battery"
	"github.com/vbcloud/vb/internal/energy"
	"github.com/vbcloud/vb/internal/migration"
	"github.com/vbcloud/vb/internal/replication"
	"github.com/vbcloud/vb/internal/trace"
)

// Extension models beyond the paper's evaluation: the physical-battery
// alternative the paper argues against (§1), and the migration-latency and
// replication models the paper defers to future work (§3).
type (
	// BatteryConfig describes a chemical storage system.
	BatteryConfig = battery.Config
	// BatteryResult reports a battery firming simulation.
	BatteryResult = battery.Result
	// MigrationModel parameterizes pre-copy live migration.
	MigrationModel = migration.Model
	// MigrationResult describes one live migration.
	MigrationResult = migration.Result
	// ReplicationConfig describes a hot/cold standby.
	ReplicationConfig = replication.Config
	// ReplicationMode selects hot or cold standby.
	ReplicationMode = replication.Mode
)

// Replication modes.
const (
	HotStandby  = replication.Hot
	ColdStandby = replication.Cold
)

// SmoothWithBattery simulates a battery firming a generation series to a
// constant target (MW).
func SmoothWithBattery(cfg BatteryConfig, generation Series, targetMW float64) (BatteryResult, error) {
	return battery.Smooth(cfg, generation, targetMW)
}

// RequiredBatteryMWh returns the smallest sustainable battery that firms
// the generation to targetMW.
func RequiredBatteryMWh(generation Series, targetMW, powerMW, efficiency, maxUnservedMWh float64) (float64, error) {
	return battery.RequiredCapacityMWh(generation, targetMW, powerMW, efficiency, maxUnservedMWh)
}

// DefaultMigrationModel returns a typical pre-copy setup (0.1 GB/s dirty
// rate, 10 Gb/s flow).
func DefaultMigrationModel() MigrationModel { return migration.DefaultModel() }

// BatteryEquivalentResult quantifies the physical storage a multi-VB group
// substitutes for.
type BatteryEquivalentResult struct {
	// TargetMW is the firmed power level: the stable floor the three-site
	// group sustains in its complementary window.
	TargetMW float64
	// SingleSiteBatteryMWh is the storage needed to firm the *best single
	// site* to the same level.
	SingleSiteBatteryMWh float64
	// SingleSiteCostUSD is its capital cost at $300/kWh.
	SingleSiteCostUSD float64
	// GroupBatteryMWh is the (much smaller) storage the aggregated group
	// would still need for the same level plus a 20% margin.
	GroupBatteryMWh float64
}

// BatteryEquivalent runs the §1 comparison the paper makes qualitatively:
// multi-VB aggregation replaces most of the chemical storage a single site
// would need to offer the same guaranteed power.
func BatteryEquivalent(seed uint64) (BatteryEquivalentResult, error) {
	w := energy.NewWorld(seed)
	trio := energy.EuropeanTrio()
	year, err := w.GeneratePower(trio, experimentStart, time.Hour, 120*24)
	if err != nil {
		return BatteryEquivalentResult{}, err
	}
	sum, err := trace.Sum(year...)
	if err != nil {
		return BatteryEquivalentResult{}, err
	}
	// Target: a floor the group itself could nearly hold — its 10th
	// percentile output.
	q := sum.Clone()
	cdf, err := NewCDF(q.Values)
	if err != nil {
		return BatteryEquivalentResult{}, err
	}
	target := cdf.Quantile(0.10)
	if target <= 0 {
		return BatteryEquivalentResult{}, fmt.Errorf("vb: degenerate target %v", target)
	}

	// Best single site: highest mean output.
	best := 0
	for i := range year {
		if year[i].Mean() > year[best].Mean() {
			best = i
		}
	}
	allow := 0.02 * target * sum.Duration().Hours() // 2% unserved allowance
	single, err := battery.RequiredCapacityMWh(year[best], target, 400, 0.85, allow)
	if err != nil {
		return BatteryEquivalentResult{}, err
	}
	group, err := battery.RequiredCapacityMWh(sum, target, 1200, 0.85, allow)
	if err != nil {
		return BatteryEquivalentResult{}, err
	}
	return BatteryEquivalentResult{
		TargetMW:             target,
		SingleSiteBatteryMWh: single,
		SingleSiteCostUSD:    battery.CostUSD(single, 300),
		GroupBatteryMWh:      group,
	}, nil
}

// MigrationRealismResult applies the pre-copy model to the Table 1
// experiment: the paper estimates traffic by VM memory size; live
// migration re-sends dirtied pages (amplification) and pauses the VM
// (downtime).
type MigrationRealismResult struct {
	// Amplification is the bytes-sent over bytes-estimated factor for a
	// typical 4 GB/core application VM.
	Amplification float64
	// DowntimeSec is the stop-and-copy pause for a 32 GB VM.
	DowntimeSec float64
	// AdjustedGreedyTotalGB and AdjustedMIPTotalGB scale the Table 1
	// totals by the amplification.
	AdjustedGreedyTotalGB, AdjustedMIPTotalGB float64
}

// MigrationRealism combines the pre-copy model with Table 1.
func MigrationRealism(seed uint64) (MigrationRealismResult, error) {
	m := migration.DefaultModel()
	r, err := m.Migrate(32)
	if err != nil {
		return MigrationRealismResult{}, err
	}
	t1, err := Table1PolicyComparison(Table1Setup{Seed: seed, Policies: []Policy{PolicyGreedy, PolicyMIP}})
	if err != nil {
		return MigrationRealismResult{}, err
	}
	greedy, _ := t1.Row(PolicyGreedy)
	mip, _ := t1.Row(PolicyMIP)
	return MigrationRealismResult{
		Amplification:         r.Amplification,
		DowntimeSec:           r.DowntimeSec,
		AdjustedGreedyTotalGB: greedy.Total * r.Amplification,
		AdjustedMIPTotalGB:    mip.Total * r.Amplification,
	}, nil
}

// ReplicationVsMigrationResult compares the two §3 mechanisms for one
// representative application.
type ReplicationVsMigrationResult struct {
	// HotStandbyGB is a week of continuous replication for the app.
	HotStandbyGB float64
	// ColdStandbyGB is a week of hourly checkpoints.
	ColdStandbyGB float64
	// MigrationGB is the app's actual migration traffic under the MIP
	// policy in the Table 1 run (week total averaged per app).
	MigrationGB float64
	// BreakEvenMovesPerWeek is how often the app would need to migrate
	// before hot replication becomes cheaper.
	BreakEvenMovesPerWeek float64
}

// ReplicationVsMigration quantifies §3's mechanism choice using the
// Table 1 app mix (a ~200-core app with 4 GB/core, moderately dirtying).
func ReplicationVsMigration(seed uint64) (ReplicationVsMigrationResult, error) {
	const (
		appMemGB  = 800 // ~200 cores x 4 GB
		dirtyGBps = 0.02
	)
	week := 7 * 24 * time.Hour
	hot := replication.Config{Mode: replication.Hot, MemGB: appMemGB, DirtyRateGBps: dirtyGBps}
	cold := replication.Config{Mode: replication.Cold, MemGB: appMemGB, DirtyRateGBps: dirtyGBps, CheckpointInterval: time.Hour}
	hotGB, err := hot.TrafficGB(week)
	if err != nil {
		return ReplicationVsMigrationResult{}, err
	}
	coldGB, err := cold.TrafficGB(week)
	if err != nil {
		return ReplicationVsMigrationResult{}, err
	}
	s := Table1Setup{Seed: seed, Policies: []Policy{PolicyMIP}}.withDefaults()
	sc, err := table1Scenario(s, table1Start, EuropeanTrio())
	if err != nil {
		return ReplicationVsMigrationResult{}, err
	}
	t1, err := sc.table1(s)
	if err != nil {
		return ReplicationVsMigrationResult{}, err
	}
	mip, _ := t1.Row(PolicyMIP)
	// Average migration traffic per app over the week.
	perApp := mip.Total / float64(len(sc.in.Apps))
	breakEven, err := hot.BreakEvenMoves(week, appMemGB*1.1)
	if err != nil {
		return ReplicationVsMigrationResult{}, err
	}
	return ReplicationVsMigrationResult{
		HotStandbyGB:          hotGB,
		ColdStandbyGB:         coldGB,
		MigrationGB:           perApp,
		BreakEvenMovesPerWeek: breakEven,
	}, nil
}

// FidelityResult compares the fluid (core-granularity) engine with the
// VM-level engine on the Table 1 scenario.
type FidelityResult struct {
	// FluidGB and VMLevelGB are total migration traffic per engine.
	FluidGB, VMLevelGB map[Policy]float64
	// Moves counts VM-level inter-site migrations per policy.
	Moves map[Policy]int
	// Fragmentation is the mean packing fragmentation per policy.
	Fragmentation map[Policy]float64
}

// Fidelity runs Greedy and MIP through both engines, validating that the
// scheduler's fluid model survives contact with discrete VMs and server
// packing.
func Fidelity(seed uint64) (FidelityResult, error) {
	s := Table1Setup{Seed: seed}.withDefaults()
	sc, err := table1Scenario(s, table1Start, EuropeanTrio())
	if err != nil {
		return FidelityResult{}, err
	}
	res := FidelityResult{
		FluidGB:       map[Policy]float64{},
		VMLevelGB:     map[Policy]float64{},
		Moves:         map[Policy]int{},
		Fragmentation: map[Policy]float64{},
	}
	for _, pol := range []Policy{PolicyGreedy, PolicyMIP} {
		cfg := table1Config(s, pol)
		fluid, err := RunPolicy(cfg, sc.in)
		if err != nil {
			return FidelityResult{}, err
		}
		vmres, err := RunPolicyVMLevel(cfg, sc.in, sc.apps, DefaultClusterConfig())
		if err != nil {
			return FidelityResult{}, err
		}
		res.FluidGB[pol] = fluid.Transfer.Total()
		res.VMLevelGB[pol] = vmres.Transfer.Total()
		res.Moves[pol] = vmres.Moves
		res.Fragmentation[pol] = vmres.Fragmentation
	}
	return res, nil
}
