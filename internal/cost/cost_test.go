package cost

import (
	"math"
	"reflect"
	"testing"

	"libra/internal/topology"
)

func approx(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(math.Abs(a), math.Abs(b))
}

// Fig. 12: a 3-NPU inter-Pod switch network at 10 GB/s costs
// $234 (links) + $540 (switch) + $948 (NICs) = $1,722.
func TestFig12Example(t *testing.T) {
	net := topology.MustParse("SW(3)")
	net.SetTier(0, topology.Pod)
	bw := topology.BWConfig{10}
	total, err := Network(Default(), net, bw)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(total, 1722, 1e-12) {
		t.Errorf("Fig. 12 network cost = $%.2f, want $1722", total)
	}
	items, err := Itemize(Default(), net, bw)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(items[0].Link, 234, 1e-12) || !approx(items[0].Switch, 540, 1e-12) || !approx(items[0].NIC, 948, 1e-12) {
		t.Errorf("Fig. 12 breakdown = %+v", items[0])
	}
	if !approx(items[0].Total(), 1722, 1e-12) {
		t.Errorf("breakdown total = %v", items[0].Total())
	}
}

func TestDefaultMatchesTableI(t *testing.T) {
	d := Default()
	cases := []struct {
		tier            topology.Tier
		link, swit, nic float64
	}{
		{topology.Chiplet, 2.0, 0, 0},
		{topology.Package, 4.0, 13.0, 0},
		{topology.Node, 4.0, 13.0, 0},
		{topology.Pod, 7.8, 18.0, 31.6},
	}
	for _, c := range cases {
		got := d.Tiers[c.tier]
		if got.LinkPerGBps != c.link || got.SwitchPerGBps != c.swit || got.NICPerGBps != c.nic {
			t.Errorf("tier %v = %+v", c.tier, got)
		}
	}
	if err := d.Validate(); err != nil {
		t.Errorf("default table invalid: %v", err)
	}
}

func TestChipletNeverPaysSwitch(t *testing.T) {
	// Even a Switch-kind dimension at the Chiplet tier is peer-to-peer.
	net := topology.MustParse("SW(4)_SW(2)")
	net.SetTier(0, topology.Chiplet)
	net.SetTier(1, topology.Pod)
	items, err := Itemize(Default(), net, topology.BWConfig{10, 10})
	if err != nil {
		t.Fatal(err)
	}
	if items[0].Switch != 0 {
		t.Errorf("chiplet switch cost = %v, want 0", items[0].Switch)
	}
	if items[1].Switch == 0 || items[1].NIC == 0 {
		t.Errorf("pod dim should pay switch + NIC: %+v", items[1])
	}
}

func TestNonPodPaysNoNIC(t *testing.T) {
	net := topology.MustParse("RI(4)_SW(2)") // tiers default to Node, Pod
	items, err := Itemize(Default(), net, topology.BWConfig{10, 10})
	if err != nil {
		t.Fatal(err)
	}
	if items[0].NIC != 0 {
		t.Errorf("node-tier NIC cost = %v", items[0].NIC)
	}
	// Ring dim pays no switch either.
	if items[0].Switch != 0 {
		t.Errorf("ring dim switch cost = %v", items[0].Switch)
	}
}

func TestCostIsLinearInBW(t *testing.T) {
	net := topology.FourD4K()
	table := Default()
	b1 := topology.BWConfig{10, 20, 30, 40}
	b2 := topology.BWConfig{20, 40, 60, 80}
	c1, err := Network(table, net, b1)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := Network(table, net, b2)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(2*c1, c2, 1e-12) {
		t.Errorf("cost not linear: C(2B)=%v, 2C(B)=%v", c2, 2*c1)
	}
	// Rates must reproduce Network.
	rates, err := Rates(table, net)
	if err != nil {
		t.Fatal(err)
	}
	dot := 0.0
	for d, r := range rates {
		dot += r * b1[d]
	}
	if !approx(dot, c1, 1e-12) {
		t.Errorf("rates·bw = %v, Network = %v", dot, c1)
	}
}

func TestRatesOrderedByTierExpense(t *testing.T) {
	// On 4D-4K (Chiplet, Package, Node, Pod) the marginal cost per GB/s
	// must increase outward: outer dims are the expensive technologies.
	rates, err := Rates(Default(), topology.FourD4K())
	if err != nil {
		t.Fatal(err)
	}
	for d := 1; d < len(rates); d++ {
		if rates[d] < rates[d-1] {
			t.Errorf("rate[%d]=%v < rate[%d]=%v; outer dims should cost more", d, rates[d], d-1, rates[d-1])
		}
	}
}

func TestWithPackageLink(t *testing.T) {
	base := Default()
	mod := base.WithPackageLink(1.0)
	if mod.Tiers[topology.Package].LinkPerGBps != 1.0 {
		t.Errorf("package link = %v", mod.Tiers[topology.Package].LinkPerGBps)
	}
	if mod.Tiers[topology.Package].SwitchPerGBps != 13.0 {
		t.Errorf("switch rate changed: %v", mod.Tiers[topology.Package].SwitchPerGBps)
	}
	if base.Tiers[topology.Package].LinkPerGBps != 4.0 {
		t.Errorf("WithPackageLink mutated the original")
	}
}

// Equal must agree with reflect.DeepEqual against the default table, the
// comparison Spec makes.
func TestTableEqual(t *testing.T) {
	drop := Default()
	delete(drop.Tiers, topology.Pod)
	extra := Default()
	extra.Tiers[topology.Tier(99)] = Component{}
	renamed := Default()
	renamed.Name = "other"
	nan := Default()
	nan.Tiers[topology.Chiplet] = Component{LinkPerGBps: math.NaN()}
	cases := []struct {
		name string
		tab  Table
	}{
		{"default", Default()},
		{"package link", Default().WithPackageLink(4.0)},
		{"other rate", Default().WithPackageLink(5.0)},
		{"missing tier", drop},
		{"extra tier", extra},
		{"renamed", renamed},
		{"NaN rate", nan},
		{"zero", Table{}},
	}
	for _, tc := range cases {
		if got, want := tc.tab.Equal(Default()), reflect.DeepEqual(tc.tab, Default()); got != want {
			t.Errorf("%s: Equal = %v, reflect.DeepEqual = %v", tc.name, got, want)
		}
	}
}

func TestMissingTierErrors(t *testing.T) {
	table := Table{Name: "partial", Tiers: map[topology.Tier]Component{topology.Pod: {LinkPerGBps: 1}}}
	net := topology.MustParse("RI(4)_SW(2)") // Node, Pod tiers
	if _, err := Network(table, net, topology.BWConfig{1, 1}); err == nil {
		t.Error("missing Node tier should error")
	}
}

func TestValidateTable(t *testing.T) {
	if err := (Table{}).Validate(); err == nil {
		t.Error("empty table should be invalid")
	}
	bad := Table{Tiers: map[topology.Tier]Component{topology.Pod: {LinkPerGBps: -1}}}
	if err := bad.Validate(); err == nil {
		t.Error("negative rate should be invalid")
	}
}

func TestNetworkValidatesBW(t *testing.T) {
	net := topology.FourD4K()
	if _, err := Network(Default(), net, topology.BWConfig{1, 2}); err == nil {
		t.Error("wrong-length BW should error")
	}
}
