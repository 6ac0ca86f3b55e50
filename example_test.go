package neurolpm_test

import (
	"fmt"
	"net/netip"

	"neurolpm"
)

// smallModel keeps the documentation examples fast; production code should
// keep DefaultConfig (the paper's 1/4/64 model).
func smallModel() neurolpm.Config {
	cfg := neurolpm.SRAMOnlyConfig()
	cfg.Model.StageWidths = []int{1, 2, 8}
	return cfg
}

// ExampleBuild shows the minimal routing workflow: CIDR rules in, exact
// longest-prefix lookups out.
func ExampleBuild() {
	var rules []neurolpm.Rule
	for _, e := range []struct {
		cidr string
		port uint64
	}{
		{"10.0.0.0/8", 1},
		{"10.1.0.0/16", 2},
	} {
		r, err := neurolpm.IPv4Rule(e.cidr, e.port)
		if err != nil {
			panic(err)
		}
		rules = append(rules, r)
	}
	rs, err := neurolpm.NewRuleSet(32, rules)
	if err != nil {
		panic(err)
	}
	engine, err := neurolpm.Build(rs, smallModel())
	if err != nil {
		panic(err)
	}
	port, ok := engine.Lookup(neurolpm.IPv4Key(netip.MustParseAddr("10.1.2.3")))
	fmt.Println(port, ok)
	port, ok = engine.Lookup(neurolpm.IPv4Key(netip.MustParseAddr("10.9.9.9")))
	fmt.Println(port, ok)
	// Output:
	// 2 true
	// 1 true
}

// ExamplePrefixCover turns an arbitrary key interval into LPM rules — the
// encoding used by the clustering and load-balancing applications.
func ExamplePrefixCover() {
	rules, err := neurolpm.PrefixCover(8,
		neurolpm.KeyFromUint64(3), neurolpm.KeyFromUint64(12), 7)
	if err != nil {
		panic(err)
	}
	for _, r := range rules {
		fmt.Printf("%s/%d\n", r.Prefix, r.Len)
	}
	// Output:
	// 0x3/8
	// 0x4/6
	// 0x8/6
	// 0xc/8
}

// ExampleNewUpdatable demonstrates the §6.5 update flow: an insertion in
// the live engine, visible as Insert returns, then an atomic retraining
// commit that folds any spilled bucket back into dense storage.
func ExampleNewUpdatable() {
	r, _ := neurolpm.IPv4Rule("10.0.0.0/8", 1)
	rs, _ := neurolpm.NewRuleSet(32, []neurolpm.Rule{r})
	u, err := neurolpm.NewUpdatable(rs, smallModel())
	if err != nil {
		panic(err)
	}

	insert, _ := neurolpm.IPv4Rule("10.1.0.0/16", 2)
	if err := u.Insert(insert); err != nil {
		panic(err)
	}
	// In the engine, and visible, as Insert returns.
	port, _ := u.Lookup(neurolpm.IPv4Key(netip.MustParseAddr("10.1.2.3")))
	fmt.Println("before commit:", port)

	if err := u.Commit(0); err != nil { // retrain + atomic swap
		panic(err)
	}
	port, _ = u.Lookup(neurolpm.IPv4Key(netip.MustParseAddr("10.1.2.3")))
	fmt.Println("after commit:", port, "spilled buckets:", u.Engine(0).SpilledBuckets())
	// Output:
	// before commit: 2
	// after commit: 2 spilled buckets: 0
}

// ExampleIPv6Rule shows 128-bit keys: nothing changes but the width.
func ExampleIPv6Rule() {
	r, err := neurolpm.IPv6Rule("2001:db8::/32", 9)
	if err != nil {
		panic(err)
	}
	rs, _ := neurolpm.NewRuleSet(128, []neurolpm.Rule{r})
	engine, err := neurolpm.Build(rs, smallModel())
	if err != nil {
		panic(err)
	}
	action, ok := engine.Lookup(neurolpm.IPv6Key(netip.MustParseAddr("2001:db8::1")))
	fmt.Println(action, ok)
	// Output:
	// 9 true
}
