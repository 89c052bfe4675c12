package ids

import (
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func TestNewIsUnique(t *testing.T) {
	seen := make(map[ID]bool)
	for i := 0; i < 10000; i++ {
		id := New()
		if seen[id] {
			t.Fatalf("duplicate ID after %d draws: %v", i, id)
		}
		seen[id] = true
	}
}

func TestNewIsValid(t *testing.T) {
	for i := 0; i < 100; i++ {
		if id := New(); !id.Valid() {
			t.Fatalf("New returned invalid ID %v", id)
		}
	}
}

func TestNilInvalid(t *testing.T) {
	if Nil.Valid() {
		t.Fatal("Nil must not be valid")
	}
}

func TestStringFormat(t *testing.T) {
	id := New()
	s := id.String()
	if !strings.HasPrefix(s, "urn:pasoa:") {
		t.Fatalf("String() = %q, want urn:pasoa: prefix", s)
	}
	if len(s) != len("urn:pasoa:")+32 {
		t.Fatalf("String() length = %d, want %d", len(s), len("urn:pasoa:")+32)
	}
}

func TestParseRoundTrip(t *testing.T) {
	for i := 0; i < 200; i++ {
		id := New()
		back, err := Parse(id.String())
		if err != nil {
			t.Fatalf("Parse(%q): %v", id.String(), err)
		}
		if back != id {
			t.Fatalf("round trip mismatch: %v != %v", back, id)
		}
	}
}

func TestParseBareHex(t *testing.T) {
	id := New()
	bare := strings.TrimPrefix(id.String(), "urn:pasoa:")
	back, err := Parse(bare)
	if err != nil {
		t.Fatalf("Parse bare hex: %v", err)
	}
	if back != id {
		t.Fatalf("bare hex round trip mismatch")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",
		"urn:pasoa:",
		"urn:pasoa:zzzz",
		"urn:pasoa:0123456789abcdef", // too short
		"urn:pasoa:0123456789abcdef0123456789abcdefff", // too long
		"not-hex-at-all-not-hex-at-all-xx",
	}
	for _, c := range cases {
		if _, err := Parse(c); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", c)
		}
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParse on bad input did not panic")
		}
	}()
	MustParse("bogus")
}

func TestSeqSourceDeterministic(t *testing.T) {
	a := &SeqSource{Prefix: 7}
	b := &SeqSource{Prefix: 7}
	for i := 0; i < 50; i++ {
		x, y := a.NewID(), b.NewID()
		if x != y {
			t.Fatalf("sequence diverged at %d: %v vs %v", i, x, y)
		}
		if !x.Valid() {
			t.Fatalf("SeqSource produced invalid ID")
		}
	}
}

func TestSeqSourcePrefixesDisjoint(t *testing.T) {
	a := &SeqSource{Prefix: 1}
	b := &SeqSource{Prefix: 2}
	seen := make(map[ID]bool)
	for i := 0; i < 100; i++ {
		for _, id := range []ID{a.NewID(), b.NewID()} {
			if seen[id] {
				t.Fatalf("collision across prefixes: %v", id)
			}
			seen[id] = true
		}
	}
}

func TestSeqSourceConcurrent(t *testing.T) {
	src := &SeqSource{}
	var mu sync.Mutex
	seen := make(map[ID]bool)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				id := src.NewID()
				mu.Lock()
				if seen[id] {
					t.Errorf("concurrent duplicate %v", id)
				}
				seen[id] = true
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
}

func TestCompare(t *testing.T) {
	a := ID{hi: 1, lo: 2}
	b := ID{hi: 1, lo: 3}
	c := ID{hi: 2, lo: 0}
	if a.Compare(b) != -1 || b.Compare(a) != 1 {
		t.Error("lo ordering wrong")
	}
	if a.Compare(c) != -1 || c.Compare(a) != 1 {
		t.Error("hi ordering wrong")
	}
	if a.Compare(a) != 0 {
		t.Error("self compare not zero")
	}
}

func TestTextMarshalRoundTrip(t *testing.T) {
	id := New()
	text, err := id.MarshalText()
	if err != nil {
		t.Fatal(err)
	}
	var back ID
	if err := back.UnmarshalText(text); err != nil {
		t.Fatal(err)
	}
	if back != id {
		t.Fatalf("text round trip mismatch")
	}
}

func TestUnmarshalTextError(t *testing.T) {
	var id ID
	if err := id.UnmarshalText([]byte("junk")); err == nil {
		t.Fatal("want error for junk input")
	}
}

// Property: Parse(String(id)) == id for arbitrary hi/lo pairs.
func TestQuickParseStringIdentity(t *testing.T) {
	f := func(hi, lo uint64) bool {
		id := ID{hi: hi, lo: lo}
		if id == Nil {
			return true // Nil round-trips to lo=1 by design; skip
		}
		back, err := Parse(id.String())
		return err == nil && back == id
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Compare is antisymmetric and consistent with equality.
func TestQuickCompareAntisymmetric(t *testing.T) {
	f := func(h1, l1, h2, l2 uint64) bool {
		a := ID{hi: h1, lo: l1}
		b := ID{hi: h2, lo: l2}
		if a == b {
			return a.Compare(b) == 0
		}
		return a.Compare(b) == -b.Compare(a) && a.Compare(b) != 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// The wire decoder parses an identifier per record, part and group;
// neither entry point of the one parser may allocate.
func TestParseDoesNotAllocate(t *testing.T) {
	s := New().String()
	text := []byte(s)
	var id ID
	if n := testing.AllocsPerRun(100, func() { id, _ = Parse(s) }); n != 0 || !id.Valid() {
		t.Errorf("Parse costs %.0f allocs, parsed %v", n, id)
	}
	if n := testing.AllocsPerRun(100, func() { id.UnmarshalText(text) }); n != 0 {
		t.Errorf("UnmarshalText costs %.0f allocs", n)
	}
}
