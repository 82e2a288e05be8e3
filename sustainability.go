package vb

import (
	"time"

	"github.com/vbcloud/vb/internal/carbon"
	"github.com/vbcloud/vb/internal/energy"
	"github.com/vbcloud/vb/internal/power"
	"github.com/vbcloud/vb/internal/trace"
)

// Carbon and server-power models (the §1 motivation and the step-4
// consolidation argument).
type (
	// CarbonIntensity is an emissions factor in gCO2e/kWh.
	CarbonIntensity = carbon.Intensity
	// CarbonSavingsBreakdown compares renewable vs grid emissions.
	CarbonSavingsBreakdown = carbon.Savings
	// ServerPowerModel is the linear idle+active server power model.
	ServerPowerModel = power.ServerModel
)

// Representative carbon intensities.
const (
	CoalGrid       = carbon.CoalGrid
	AverageGrid    = carbon.AverageGrid
	GasGrid        = carbon.GasGrid
	WindLifecycle  = carbon.WindLifecycle
	SolarLifecycle = carbon.SolarLifecycle
)

// CarbonResult quantifies the emissions argument of §1 on a year of the
// trio's generation consumed by co-located compute.
type CarbonResult struct {
	// Savings versus an average mixed grid.
	Savings CarbonSavingsBreakdown
	// MigrationTons is the footprint of a year of migration WAN traffic —
	// the §5 "negligible" claim.
	MigrationTons float64
	// MigrationShare is MigrationTons over the grid counterfactual.
	MigrationShare float64
}

// CarbonSavings computes the CO2e a VB deployment avoids by consuming the
// trio's generation on site instead of grid energy, and checks §5's claim
// that the added migration traffic is carbon-negligible.
func CarbonSavings(seed uint64) (CarbonResult, error) {
	w := energy.NewWorld(seed)
	year, err := w.GeneratePower(energy.EuropeanTrio(), experimentStart, time.Hour, 365*24)
	if err != nil {
		return CarbonResult{}, err
	}
	sum, err := trace.Sum(year...)
	if err != nil {
		return CarbonResult{}, err
	}
	// Blend wind and solar lifecycle intensity by energy share.
	solarE := year[0].Energy()
	totalE := sum.Energy()
	blend := CarbonIntensity(
		(float64(carbon.SolarLifecycle)*solarE + float64(carbon.WindLifecycle)*(totalE-solarE)) / totalE)
	sav, err := carbon.CompareToGrid(sum, blend, carbon.AverageGrid)
	if err != nil {
		return CarbonResult{}, err
	}
	// A year of migration traffic, scaled from the Fig 4 wind month.
	fig4, err := Fig4Migration(seed, Wind, 28)
	if err != nil {
		return CarbonResult{}, err
	}
	yearGB := (fig4.Run.TotalOutGB() + fig4.Run.TotalInGB()) * 13 // ~13 four-week months
	migTons, err := carbon.MigrationEnergyTons(yearGB, 0.03, carbon.AverageGrid)
	if err != nil {
		return CarbonResult{}, err
	}
	res := CarbonResult{Savings: sav, MigrationTons: migTons}
	if sav.GridTons > 0 {
		res.MigrationShare = migTons / sav.GridTons
	}
	return res, nil
}

// ConsolidationResult quantifies the step-4 packing argument with the
// server power model.
type ConsolidationResult struct {
	// ConsolidatedKW and SpreadKW are the site draws for best-fit packing
	// vs even spreading at the paper's scale (700 servers, 70% util).
	ConsolidatedKW, SpreadKW float64
	// SavingFraction is 1 - consolidated/spread.
	SavingFraction float64
}

// ConsolidationStudy computes the power saving of consolidating the
// paper's 700-server site at 70% utilization versus spreading the same
// load across all powered servers.
func ConsolidationStudy() (ConsolidationResult, error) {
	cfg := DefaultClusterConfig()
	model := power.DefaultServerModel()
	alloc := int(0.7 * float64(cfg.TotalCores()))
	cons, spread, err := power.ConsolidationSaving(model, alloc, cfg.TotalCores(), cfg.Servers, cfg.CoresPerServer)
	if err != nil {
		return ConsolidationResult{}, err
	}
	out := ConsolidationResult{ConsolidatedKW: cons, SpreadKW: spread}
	if spread > 0 {
		out.SavingFraction = 1 - cons/spread
	}
	return out, nil
}
