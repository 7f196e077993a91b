package core

import "cmcp/internal/sim"

// Tuner adjusts CMCP's prioritized-pages ratio p at runtime from page
// fault frequency feedback. The paper sets p manually and names dynamic
// adjustment "based on runtime performance feedback (such as page fault
// frequency)" as future work (§5.6); this is that mechanism.
//
// The tuner is a simple hill climber: it measures faults per window,
// compares with the previous window, and keeps moving p in the same
// direction while the fault rate improves, reversing direction when it
// worsens. The step size halves on each reversal so p converges.
type Tuner struct {
	cmcp *CMCP

	window    sim.Cycles
	nextEval  sim.Cycles
	faults    uint64
	prevRate  float64
	havePrev  bool
	step      float64
	direction float64

	// History records (p, faults) per window for analysis.
	History []TunerSample
}

// TunerSample is one evaluation window's record.
type TunerSample struct {
	P      float64
	Faults uint64
}

// TunerConfig parameterizes a Tuner.
type TunerConfig struct {
	// Window is the evaluation period; defaults to 50 ms of simulated
	// time (defaultWindow), long enough for the fault rate to respond
	// to a p change.
	Window sim.Cycles
	// InitialStep is the first p adjustment; defaults to 0.25.
	InitialStep float64
}

// defaultWindow is 50 ms at 1.053 GHz: five of the paper's 10 ms
// scanner periods.
const defaultWindow sim.Cycles = 5 * 10_530_000

// NewTuner creates a dynamic-p tuner. Attach it with WithTuner.
func NewTuner(cfg TunerConfig) *Tuner {
	if cfg.Window == 0 {
		cfg.Window = defaultWindow
	}
	if cfg.InitialStep == 0 {
		cfg.InitialStep = 0.25
	}
	return &Tuner{window: cfg.Window, step: cfg.InitialStep, direction: 1}
}

func (t *Tuner) attach(c *CMCP) { t.cmcp = c }

func (t *Tuner) noteFault() { t.faults++ }

// tick is called from CMCP.Tick with the current virtual time.
func (t *Tuner) tick(now sim.Cycles) {
	if now < t.nextEval {
		return
	}
	t.nextEval = now + t.window
	rate := float64(t.faults)
	t.History = append(t.History, TunerSample{P: t.cmcp.P(), Faults: t.faults})
	t.faults = 0
	if !t.havePrev {
		t.prevRate = rate
		t.havePrev = true
		t.move()
		return
	}
	if rate > t.prevRate {
		// Got worse: reverse and shrink the step.
		t.direction = -t.direction
		t.step /= 2
		if t.step < 0.01 {
			t.step = 0.01
		}
	}
	t.prevRate = rate
	t.move()
}

func (t *Tuner) move() {
	p := t.cmcp.P() + t.direction*t.step
	// Bounce off the ends of the [0,1] range.
	if p < 0 || p > 1 {
		t.direction = -t.direction
		p = t.cmcp.P() + t.direction*t.step
	}
	t.cmcp.SetP(p)
}
