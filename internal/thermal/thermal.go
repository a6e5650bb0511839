// Package thermal models the processor's thermal path as a lumped
// two-node RC network:
//
//	die ──R_js──> heatsink ──R_sa(airflow)──> ambient
//
// The die node (small capacitance) responds to power changes within
// seconds — the paper's "sudden" behaviour — while the heatsink node
// (large capacitance) drifts over tens of seconds — the "gradual"
// behaviour. The sink-to-ambient resistance falls with fan airflow
// following a forced-convection law, which is the physical mechanism the
// out-of-band knob actuates.
//
// Integration is explicit Euler with sub-stepping when the caller's dt
// approaches the die time constant, so the model stays stable at any
// step size.
//
// The convection law's airflow^0.8 runs on every step, so it comes from
// a table built once at package initialisation: math.Pow at uniform
// knots over [0, 1], linearly interpolated between them, exact at each
// knot and within 1e-6 of math.Pow relative to the value everywhere.
// Below convSeam, where a^0.8's slope grows without bound (a stalled
// or spinning-down fan), the law calls math.Pow.
package thermal

import (
	"math"
	"time"
)

// Config holds the RC network parameters.
type Config struct {
	// AmbientC is the inlet air temperature, °C.
	AmbientC float64
	// CdieJPerK is the die+spreader heat capacity.
	CdieJPerK float64
	// CsinkJPerK is the heatsink heat capacity.
	CsinkJPerK float64
	// RjsKPerW is the conductive junction-to-sink resistance.
	RjsKPerW float64
	// ConvH0 and ConvH1 define the convective conductance
	// 1/Rsa = H0 + H1·airflow^ConvExp  (W/K).
	ConvH0, ConvH1 float64
}

// ConvExp is the forced-convection exponent: 0.8 for turbulent flow
// over a finned sink.
const ConvExp = 0.8

// Default returns parameters calibrated for the paper's platform: a
// compute-bound Athlon64 (≈60 W) sits near 50 °C with the fan at 75%
// duty, near 60 °C at 25% duty, and idles in the high 30s — matching the
// operating points visible in the paper's figures.
func Default() Config {
	return Config{
		AmbientC:   27.0,
		CdieJPerK:  55,
		CsinkJPerK: 60,
		RjsKPerW:   0.10,
		ConvH0:     1.14,
		ConvH1:     2.19,
	}
}

// Network is one instance of the two-node RC model: its configuration
// and its integrator state, the two node temperatures in °C, held by
// value so that a fleet owner can lay whole networks out contiguously
// (node.Block).
type Network struct {
	cfg   Config
	dieC  float64
	sinkC float64
}

// New returns a network equilibrated to zero power: both nodes start at
// ambient. Callers typically Settle() it against idle power first.
func New(cfg Config) *Network {
	return &Network{cfg: cfg, dieC: cfg.AmbientC, sinkC: cfg.AmbientC}
}

// convKnots is the number of table intervals over [0, 1]; a power of
// two, so airflow·convKnots is exact.
const convKnots = 4096

// convSeam is the airflow below which pow08 calls math.Pow. Linear
// interpolation of a^0.8 over the interval [k, k+1]/convKnots is off by
// at most 0.02/k² of the value, which is 3e-7 at the seam's knot 256.
const convSeam = 256.0 / convKnots

// convTable holds a^ConvExp at a = i/convKnots, i = 0..convKnots, plus a
// copy of the last knot so that a = 1 interpolates without a bounds
// special case. Immutable after initialisation.
var convTable = func() []float64 {
	t := make([]float64, convKnots+2)
	for i := 0; i <= convKnots; i++ {
		t[i] = math.Pow(float64(i)/convKnots, ConvExp)
	}
	t[convKnots+1] = t[convKnots]
	return t
}()

// pow08 returns a^ConvExp for a in [0, 1].
func pow08(a float64) float64 {
	if a < convSeam {
		return math.Pow(a, ConvExp)
	}
	x := a * convKnots
	i := int(x)
	lo := convTable[i]
	return lo + (x-float64(i))*(convTable[i+1]-lo)
}

// RsaKPerW returns the sink-to-ambient resistance at the given
// normalized airflow in [0, 1]. Airflow outside it is clamped; a NaN
// airflow counts as still air.
func (n *Network) RsaKPerW(airflow float64) float64 {
	if !(airflow > 0) {
		airflow = 0
	}
	if airflow > 1 {
		airflow = 1
	}
	h := n.cfg.ConvH0 + n.cfg.ConvH1*pow08(airflow)
	if h <= 0 {
		return math.Inf(1)
	}
	return 1 / h
}

// Step advances the network by dt with the given die power (watts) and
// normalized airflow.
func (n *Network) Step(dt time.Duration, powerW, airflow float64) {
	n.integrate(dt, powerW, n.RsaKPerW(airflow))
}

// integrate advances the network by dt with the given die power and
// sink-to-ambient resistance.
func (n *Network) integrate(dt time.Duration, powerW, rsa float64) {
	remaining := dt.Seconds()
	// Sub-step at no more than a fifth of the die time constant for
	// Euler stability.
	tauDie := n.cfg.CdieJPerK * n.cfg.RjsKPerW
	maxH := tauDie / 5
	if maxH <= 0 {
		maxH = remaining
	}
	for remaining > 1e-12 {
		h := remaining
		if h > maxH {
			h = maxH
		}
		qJS := (n.dieC - n.sinkC) / n.cfg.RjsKPerW
		qSA := (n.sinkC - n.cfg.AmbientC) / rsa
		n.dieC += h * (powerW - qJS) / n.cfg.CdieJPerK
		n.sinkC += h * (qJS - qSA) / n.cfg.CsinkJPerK
		remaining -= h
	}
}

// Settle jumps the network to its steady state for the given power and
// airflow, used to initialize simulations at thermal equilibrium.
func (n *Network) Settle(powerW, airflow float64) {
	rsa := n.RsaKPerW(airflow)
	n.sinkC = n.cfg.AmbientC + powerW*rsa
	n.dieC = n.sinkC + powerW*n.cfg.RjsKPerW
}

// DieC returns the die temperature, °C — what the on-die sensor measures.
func (n *Network) DieC() float64 { return n.dieC }

// SinkC returns the heatsink temperature, °C.
//
//thermlint:allow deadcode -- oracle: the auto-cluster golden records the sink temperature
func (n *Network) SinkC() float64 { return n.sinkC }

// AmbientC returns the inlet air temperature.
func (n *Network) AmbientC() float64 { return n.cfg.AmbientC }

// SetAmbientC changes the inlet air temperature, modelling rack-level
// hot spots.
func (n *Network) SetAmbientC(t float64) { n.cfg.AmbientC = t }

// SteadyDieC returns the steady-state die temperature for the given
// power and airflow without mutating the network.
//
//thermlint:allow deadcode -- oracle: the still-air bound tests compare the die against this steady state
func (n *Network) SteadyDieC(powerW, airflow float64) float64 {
	return n.cfg.AmbientC + powerW*(n.RsaKPerW(airflow)+n.cfg.RjsKPerW)
}
