package sweep

import (
	"testing"

	"cmcp/internal/sim"
)

// TestKeyTopologySensitive extends the key-sensitivity property to the
// NUMA topology: presence and every field must perturb the content key.
func TestKeyTopologySensitive(t *testing.T) {
	flat := testCfg(1)
	flatKey, err := Key(flat)
	if err != nil {
		t.Fatal(err)
	}
	base := testCfg(1)
	base.Topology = sim.DefaultTopology(2, 4)
	baseKey, err := Key(base)
	if err != nil {
		t.Fatal(err)
	}
	if baseKey == flatKey {
		t.Fatal("2-socket config keys like a flat one")
	}
	mutations := map[string]func(*sim.Topology){
		"sockets":   func(tp *sim.Topology) { tp.Sockets = 4; tp.CoresPerSocket = 2 },
		"cps":       func(tp *sim.Topology) { tp.CoresPerSocket++ },
		"xipi":      func(tp *sim.Topology) { tp.CrossSocketIPI += 50 },
		"walk":      func(tp *sim.Topology) { tp.RemoteWalkExtra += 10 },
		"sync":      func(tp *sim.Topology) { tp.ReplicaSync += 10 },
		"migrate":   func(tp *sim.Topology) { tp.MigrateCost += 100 },
		"threshold": func(tp *sim.Topology) { tp.MigrateThreshold++ },
	}
	seen := map[string]string{baseKey: "base", flatKey: "flat"}
	for name, mutate := range mutations {
		c := base
		topo := *base.Topology
		mutate(&topo)
		c.Topology = &topo
		k, err := Key(c)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if prev, dup := seen[k]; dup {
			t.Errorf("mutation %q collides with %q", name, prev)
		}
		seen[k] = name
	}
}
