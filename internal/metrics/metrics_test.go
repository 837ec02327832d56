package metrics

import (
	"math"
	"testing"
	"testing/quick"

	"mtsim/internal/packet"
)

func TestRelayTableTableIExample(t *testing.T) {
	// Reconstruct the paper's Table I from its β column and verify our
	// Eq. 2–4 pipeline reproduces the printed α, γ and σ.
	c := NewCollector()
	beta := map[packet.NodeID]uint64{
		2: 10581, 3: 283, 17: 1, 21: 3886, 23: 1, 28: 15458, 36: 275, 45: 1,
	}
	for node, b := range beta {
		for i := uint64(0); i < b; i++ {
			c.Relay(node)
		}
	}
	rows, alpha, sigma := c.RelayTable()
	if alpha != 30486 {
		t.Fatalf("α = %d, want 30486 (paper Table I)", alpha)
	}
	if len(rows) != 8 {
		t.Fatalf("rows = %d, want 8", len(rows))
	}
	// Paper: node 28 -> 50.70%, node 2 -> 34.70%, node 21 -> 12.75%.
	byNode := map[packet.NodeID]float64{}
	for _, r := range rows {
		byNode[r.Node] = r.Gamma
	}
	checks := map[packet.NodeID]float64{28: 0.5070, 2: 0.3470, 21: 0.1275, 3: 0.0093}
	for node, want := range checks {
		if math.Abs(byNode[node]-want) > 0.0005 {
			t.Fatalf("γ(%d) = %.4f, want %.4f", node, byNode[node], want)
		}
	}
	// Paper: σ = 19.60%.
	if math.Abs(sigma-0.196) > 0.001 {
		t.Fatalf("σ = %.4f, want 0.196 (paper Table I)", sigma)
	}
}

func TestRelayTableEmpty(t *testing.T) {
	c := NewCollector()
	rows, alpha, sigma := c.RelayTable()
	if len(rows) != 0 || alpha != 0 || sigma != 0 {
		t.Fatal("empty collector produced non-zero table")
	}
	if c.Participating() != 0 || c.MaxBeta() != 0 {
		t.Fatal("empty collector counts")
	}
}

func TestRelayTableSortedAndNormalized(t *testing.T) {
	c := NewCollector()
	c.Relay(9)
	c.Relay(3)
	c.Relay(3)
	c.Relay(7)
	rows, alpha, _ := c.RelayTable()
	if alpha != 4 {
		t.Fatalf("α = %d", alpha)
	}
	if rows[0].Node != 3 || rows[1].Node != 7 || rows[2].Node != 9 {
		t.Fatalf("rows unsorted: %+v", rows)
	}
	sum := 0.0
	for _, r := range rows {
		sum += r.Gamma
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("Σγ = %v", sum)
	}
}

func TestCountersAndDrops(t *testing.T) {
	c := NewCollector()
	c.ControlSend()
	c.ControlSend()
	c.DataSend()
	c.Drop("no-route")
	c.Drop("no-route")
	c.Drop("ttl")
	if c.ControlTx() != 2 || c.DataTx() != 1 {
		t.Fatal("tx counters wrong")
	}
	if c.Drops()["no-route"] != 2 || c.Drops()["ttl"] != 1 {
		t.Fatalf("drops = %v", c.Drops())
	}
}

// Property: for any relay multiset, Σγ = 1, σ ≥ 0, σ ≤ sqrt((N-1))/N·…
// bounded by the maximum possible for N nodes, and MaxBeta is an upper
// bound of every row.
func TestRelayTableProperties(t *testing.T) {
	f := func(counts []uint8) bool {
		c := NewCollector()
		total := uint64(0)
		for i, n := range counts {
			for k := 0; k < int(n); k++ {
				c.Relay(packet.NodeID(i))
			}
			total += uint64(n)
		}
		rows, alpha, sigma := c.RelayTable()
		if alpha != total {
			return false
		}
		if total == 0 {
			return sigma == 0
		}
		sum := 0.0
		for _, r := range rows {
			if r.Beta > c.MaxBeta() {
				return false
			}
			sum += r.Gamma
		}
		if math.Abs(sum-1) > 1e-9 {
			return false
		}
		// σ of values in [0,1] with mean 1/N is at most sqrt of max
		// spread, certainly < 1.
		return sigma >= 0 && sigma < 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
