package energy

import (
	"math"
	"math/rand/v2"
)

// ouProcess is a standardized Ornstein–Uhlenbeck process: mean 0, stationary
// variance 1, mean-reversion time constant tau (in steps). It is the building
// block for both the synoptic wind driver and intra-day cloud fluctuation.
type ouProcess struct {
	tau   float64 // mean reversion time constant, in steps
	state float64
	rng   *rand.Rand
}

// newOU returns an OU process started from its stationary distribution.
func newOU(tau float64, rng *rand.Rand) *ouProcess {
	return &ouProcess{tau: tau, state: rng.NormFloat64(), rng: rng}
}

// step advances one time step and returns the new state. The exact discrete
// transition keeps the process stationary at variance 1 regardless of tau.
func (p *ouProcess) step() float64 {
	a := math.Exp(-1 / p.tau)
	p.state = a*p.state + math.Sqrt(1-a*a)*p.rng.NormFloat64()
	return p.state
}

// regime indexes the paper's three observed solar day types (§2.2, Fig 2a).
type regime int

const (
	regimeSunny regime = iota
	regimeVariable
	regimeOvercast
)

// String implements fmt.Stringer for diagnostics.
func (r regime) String() string {
	switch r {
	case regimeSunny:
		return "sunny"
	case regimeVariable:
		return "variable"
	default:
		return "overcast"
	}
}

// classifyRegime maps a standard-normal daily cloudiness latent to a day
// type. The thresholds put roughly 42% of days sunny, 33% variable and 25%
// overcast; persistence comes from the slow OU process driving the latent,
// so weather systems last a few days as in the ELIA sample the paper plots.
func classifyRegime(z float64) regime {
	switch {
	case z < -0.2:
		return regimeSunny
	case z < 0.67:
		return regimeVariable
	default:
		return regimeOvercast
	}
}

// corrWeight converts a distance (km) into a correlation weight using an
// exponential decay with the given length scale (km).
func corrWeight(distKM, scaleKM float64) float64 {
	if scaleKM <= 0 {
		return 0
	}
	return math.Exp(-distKM / scaleKM)
}

// logistic maps x through a logistic squash to (0, 1) with the given center
// and steepness.
func logistic(x, center, steep float64) float64 {
	return 1 / (1 + math.Exp(-steep*(x-center)))
}
