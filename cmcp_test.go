package cmcp_test

import (
	"strings"
	"testing"

	"cmcp"
)

func TestPublicAPISimulate(t *testing.T) {
	res, err := cmcp.Simulate(cmcp.Config{
		Cores:       8,
		Workload:    cmcp.CG().Scale(0.05),
		MemoryRatio: 0.4,
		Tables:      cmcp.PSPT,
		Policy:      cmcp.PolicySpec{Kind: cmcp.CMCP, P: 0.25},
		Seed:        1,
		Verify:      true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Runtime == 0 || res.PolicyName != "CMCP" {
		t.Errorf("runtime=%d policy=%s", res.Runtime, res.PolicyName)
	}
	if res.Run.Total(cmcp.PageFaults) == 0 {
		t.Error("constrained run must fault")
	}
	if res.Run.Total(cmcp.BytesIn) == 0 {
		t.Error("faults move data")
	}
}

func TestPublicAPIWorkloads(t *testing.T) {
	if len(cmcp.Workloads()) != 4 {
		t.Error("four paper workloads expected")
	}
	for _, name := range []string{"bt.B", "lu.B", "cg.B", "SCALE"} {
		wl, ok := cmcp.WorkloadByName(name)
		if !ok {
			t.Errorf("%s missing", name)
		}
		if err := wl.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		c := cmcp.Constraint(name)
		if c <= 0 || c >= 1 {
			t.Errorf("%s constraint %v", name, c)
		}
	}
}

func TestPublicAPIDefaults(t *testing.T) {
	cost := cmcp.DefaultCostModel()
	if cost.TouchCompute == 0 || cost.DMABytesPerCycle == 0 {
		t.Error("cost model defaults empty")
	}
	if cmcp.Size64k.Span() != 16 || cmcp.Size2M.Span() != 512 {
		t.Error("page size spans")
	}
}

func TestPublicAPIStandalonePolicies(t *testing.T) {
	fifo := cmcp.NewFIFOPolicy()
	fifo.PTESetup(1)
	fifo.PTESetup(2)
	if v, ok := fifo.Victim(); !ok || v != 1 {
		t.Error("standalone FIFO")
	}

	host := constHost{}
	pol := cmcp.NewCMCPPolicy(host, 10, 0.5)
	if pol.Name() != "CMCP" {
		t.Error("standalone CMCP name")
	}
	pol.PTESetup(1)
	if pol.Resident() != 1 {
		t.Error("standalone CMCP bookkeeping")
	}

	lru := cmcp.NewLRUPolicy(host)
	lru.PTESetup(1)
	if lru.Resident() != 1 {
		t.Error("standalone LRU")
	}
}

// constHost is a trivial PolicyHost for standalone policy use.
type constHost struct{}

func (constHost) CoreMapCount(cmcp.PageID) int  { return 2 }
func (constHost) ScanAccessed(cmcp.PageID) bool { return false }

func TestPublicAPICustomPolicyFactory(t *testing.T) {
	var built bool
	cfg := cmcp.Config{
		Cores:       2,
		Workload:    cmcp.Workload{Name: "t", Pages: 128, TotalTouches: 4096, Sharing: []cmcp.ShareBand{{Cores: 1, Frac: 1}}},
		MemoryRatio: 0.5,
		Policy: cmcp.PolicySpec{
			Factory: func(h cmcp.PolicyHost) cmcp.Policy {
				built = true
				return cmcp.NewFIFOPolicy()
			},
		},
		Seed: 1,
	}
	res, err := cmcp.Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !built {
		t.Error("custom factory not used")
	}
	if res.PolicyName != "FIFO" {
		t.Errorf("policy = %s", res.PolicyName)
	}
}

func TestPublicAPIExperiment(t *testing.T) {
	rep, err := cmcp.RunExperiment("fig8", cmcp.ExperimentOptions{Scale: 0.03, Quick: true, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep.String(), "fig8") {
		t.Error("report rendering")
	}
	if _, err := cmcp.RunExperiment("nope", cmcp.ExperimentOptions{}); err == nil {
		t.Error("unknown experiment must fail")
	}
}

func TestPublicAPIAuditedRun(t *testing.T) {
	aud := cmcp.NewAuditor(cmcp.AuditorConfig{Every: 512})
	_, err := cmcp.Simulate(cmcp.Config{
		Cores:       4,
		Workload:    cmcp.LU().Scale(0.03),
		MemoryRatio: 0.5,
		Tables:      cmcp.PSPT,
		Policy:      cmcp.PolicySpec{Kind: cmcp.CMCP, P: 0.5},
		Seed:        4,
		Verify:      true,
		Audit:       aud,
	})
	if err != nil {
		t.Fatal(err)
	}
	if aud.Audits() == 0 {
		t.Error("auditor never ran")
	}
	if len(aud.Violations()) != 0 {
		t.Errorf("violations: %v", aud.Violations())
	}
}

func TestPublicAPIErrorClasses(t *testing.T) {
	for _, e := range []error{cmcp.ErrNoVictim, cmcp.ErrBadVictim, cmcp.ErrMapFailed, cmcp.ErrCorruption} {
		if e == nil {
			t.Fatal("nil error class")
		}
	}
}

func TestPublicAPIRunManyDeterminism(t *testing.T) {
	cfg := cmcp.Config{
		Cores:       4,
		Workload:    cmcp.SCALE().Scale(0.03),
		MemoryRatio: 0.5,
		Tables:      cmcp.PSPT,
		Policy:      cmcp.PolicySpec{Kind: cmcp.LRU},
		Seed:        9,
	}
	results, err := cmcp.RunMany([]cmcp.Config{cfg, cfg}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Runtime != results[1].Runtime {
		t.Error("identical configs must produce identical results")
	}
}
