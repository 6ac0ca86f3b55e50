package neurolpm

import (
	"math/rand"
	"net/netip"
	"testing"
)

func quickConfig() Config {
	cfg := SRAMOnlyConfig()
	cfg.Model.StageWidths = []int{1, 2, 8}
	return cfg
}

func TestPublicAPIQuickstart(t *testing.T) {
	rules := []Rule{}
	for _, r := range []struct {
		cidr   string
		action uint64
	}{
		{"10.0.0.0/8", 1},
		{"10.1.0.0/16", 2},
		{"10.1.2.0/24", 3},
		{"192.168.0.0/16", 4},
	} {
		rule, err := IPv4Rule(r.cidr, r.action)
		if err != nil {
			t.Fatal(err)
		}
		rules = append(rules, rule)
	}
	rs, err := NewRuleSet(32, rules)
	if err != nil {
		t.Fatal(err)
	}
	engine, err := Build(rs, quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]uint64{
		"10.1.2.3":    3,
		"10.1.9.9":    2,
		"10.9.9.9":    1,
		"192.168.1.1": 4,
	}
	for addr, want := range cases {
		got, ok := engine.Lookup(IPv4Key(netip.MustParseAddr(addr)))
		if !ok || got != want {
			t.Errorf("%s -> %d,%v, want %d", addr, got, ok, want)
		}
	}
	if _, ok := engine.Lookup(IPv4Key(netip.MustParseAddr("8.8.8.8"))); ok {
		t.Error("8.8.8.8 should not match")
	}
}

func TestIPv6RoundTrip(t *testing.T) {
	r, err := IPv6Rule("2001:db8::/32", 7)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := NewRuleSet(128, []Rule{r})
	if err != nil {
		t.Fatal(err)
	}
	engine, err := Build(rs, quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	got, ok := engine.Lookup(IPv6Key(netip.MustParseAddr("2001:db8::1")))
	if !ok || got != 7 {
		t.Fatalf("lookup = %d,%v", got, ok)
	}
	if _, ok := engine.Lookup(IPv6Key(netip.MustParseAddr("2001:db9::1"))); ok {
		t.Fatal("2001:db9:: should not match")
	}
}

func TestIPv4RuleErrors(t *testing.T) {
	for _, cidr := range []string{"not-a-cidr", "2001:db8::/32", "10.0.0.0"} {
		if _, err := IPv4Rule(cidr, 1); err == nil {
			t.Errorf("IPv4Rule(%q) accepted", cidr)
		}
	}
}

func TestIPv6RuleErrors(t *testing.T) {
	for _, cidr := range []string{"10.0.0.0/8", "zzz", "::ffff:10.0.0.0/104"} {
		if _, err := IPv6Rule(cidr, 1); err == nil {
			t.Errorf("IPv6Rule(%q) accepted", cidr)
		}
	}
}

func TestParseRuleSetPublic(t *testing.T) {
	rs, err := ParseRuleSet(32, "0x0a000000/8 1\n0xc0a80000/16 2\n")
	if err != nil {
		t.Fatal(err)
	}
	if rs.Len() != 2 {
		t.Fatalf("rules = %d", rs.Len())
	}
}

func TestOracleAgreesWithEngine(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var rules []Rule
	seen := map[string]bool{}
	for len(rules) < 300 {
		length := 1 + rng.Intn(32)
		v := uint64(rng.Uint32())
		v = v >> (32 - length) << (32 - length)
		r := Rule{Prefix: KeyFromUint64(v), Len: length, Action: uint64(rng.Intn(100))}
		k := r.Prefix.String() + "/" + string(rune(length))
		if seen[k] {
			continue
		}
		seen[k] = true
		rules = append(rules, r)
	}
	rs, err := NewRuleSet(32, rules)
	if err != nil {
		t.Fatal(err)
	}
	engine, err := Build(rs, quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	oracle := NewOracle(rs)
	for q := 0; q < 5000; q++ {
		k := KeyFromUint64(uint64(rng.Uint32()))
		g1, ok1 := engine.Lookup(k)
		g2, ok2 := oracle.Lookup(k)
		if ok1 != ok2 || (ok1 && g1 != g2) {
			t.Fatalf("key %v: engine (%d,%v) oracle (%d,%v)", k, g1, ok1, g2, ok2)
		}
	}
}

func TestKeyFromParts(t *testing.T) {
	k := KeyFromParts(1, 2)
	if k.Hi != 1 || k.Lo != 2 {
		t.Fatalf("KeyFromParts = %+v", k)
	}
}
