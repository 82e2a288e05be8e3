// Package power models server power draw inside a VB site. The paper's
// step 4 places VMs "to minimize total power usage by consolidating as much
// as possible", and its §2 relies on "frequency scaling, powering down
// cores/caches/memory units to control power distributed to servers"; this
// package quantifies both: a linear idle+active server model with a DVFS
// frequency factor, and the consolidation savings that justify best-fit
// packing.
package power

import "fmt"

// ServerModel is the classic linear server power model: an idle floor plus
// a per-utilization active component, scaled by the DVFS frequency factor.
type ServerModel struct {
	// IdleWatts is the draw of a powered-on, empty server.
	IdleWatts float64
	// PeakWatts is the draw at full utilization and full frequency.
	PeakWatts float64
}

// DefaultServerModel returns a typical dual-socket server: 120 W idle,
// 400 W peak.
func DefaultServerModel() ServerModel {
	return ServerModel{IdleWatts: 120, PeakWatts: 400}
}

// Validate reports model errors.
func (m ServerModel) Validate() error {
	if m.IdleWatts < 0 {
		return fmt.Errorf("power: negative idle watts %v", m.IdleWatts)
	}
	if m.PeakWatts <= m.IdleWatts {
		return fmt.Errorf("power: peak %v must exceed idle %v", m.PeakWatts, m.IdleWatts)
	}
	return nil
}

// Draw returns one server's watts at the given core utilization (0-1) and
// frequency factor. Active power scales with freq^3 (voltage tracks
// frequency); throughput scales with freq, so running slower saves energy
// per unit time but takes longer.
func (m ServerModel) Draw(utilization, freq float64) (float64, error) {
	if err := m.Validate(); err != nil {
		return 0, err
	}
	if utilization < 0 || utilization > 1 {
		return 0, fmt.Errorf("power: utilization %v outside [0,1]", utilization)
	}
	if freq <= 0 || freq > 1 {
		return 0, fmt.Errorf("power: frequency %v outside (0,1]", freq)
	}
	active := (m.PeakWatts - m.IdleWatts) * utilization * freq * freq * freq
	return m.IdleWatts + active, nil
}

// ConsolidationSaving compares the site draw of a consolidated packing
// (VMs packed onto few servers, the paper's step 4) against the same load
// spread evenly over all powered servers, returning (consolidatedKW,
// spreadKW). The gap is the energy argument for best-fit placement.
func ConsolidationSaving(m ServerModel, allocatedCores, poweredCores, servers, coresPerServer int) (consolidatedKW, spreadKW float64, err error) {
	if err := m.Validate(); err != nil {
		return 0, 0, err
	}
	if servers <= 0 || coresPerServer <= 0 {
		return 0, 0, fmt.Errorf("power: bad shape %d servers x %d cores", servers, coresPerServer)
	}
	if allocatedCores < 0 || poweredCores < 0 || allocatedCores > servers*coresPerServer {
		return 0, 0, fmt.Errorf("power: bad core counts alloc=%d powered=%d", allocatedCores, poweredCores)
	}
	// Consolidated: ceil(alloc/coresPerServer) servers at ~full util, the
	// rest of the powered servers switched off (not just idled) — the
	// "opportunistically turning off unused servers" optimization.
	full := allocatedCores / coresPerServer
	rem := allocatedCores % coresPerServer
	wFull, err := m.Draw(1, 1)
	if err != nil {
		return 0, 0, err
	}
	consolidatedKW = float64(full) * wFull / 1000
	if rem > 0 {
		w, err := m.Draw(float64(rem)/float64(coresPerServer), 1)
		if err != nil {
			return 0, 0, err
		}
		consolidatedKW += w / 1000
	}
	// Spread: every powered server on at even utilization.
	poweredServers := poweredCores / coresPerServer
	if poweredServers == 0 {
		return consolidatedKW, 0, nil
	}
	util := float64(allocatedCores) / float64(poweredServers*coresPerServer)
	if util > 1 {
		util = 1
	}
	w, err := m.Draw(util, 1)
	if err != nil {
		return 0, 0, err
	}
	spreadKW = float64(poweredServers) * w / 1000
	return consolidatedKW, spreadKW, nil
}
