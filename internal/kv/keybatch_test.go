package kv

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
)

// decodeKeys parses body and copies its keys out.
func decodeKeys(t testing.TB, body []byte) (KeyBatch, []string) {
	t.Helper()
	b, err := ParseKeyBatch(body)
	if err != nil {
		t.Fatalf("a body AppendKeyBatch wrote does not parse: %v", err)
	}
	var keys []string
	for i, k := range b.All() {
		if i != len(keys) {
			t.Fatalf("key %d yielded at position %d", len(keys), i)
		}
		keys = append(keys, string(k))
	}
	if len(keys) != b.Len() {
		t.Fatalf("yielded %d keys, Len says %d", len(keys), b.Len())
	}
	return b, keys
}

// TestKeyBatchRoundTrip holds the codec to a sort-and-dedupe oracle: what
// SortKeys and AppendKeyBatch make of any key list decodes to the list's
// distinct keys in order, with the put-or-delete flag it was written with.
func TestKeyBatchRoundTrip(t *testing.T) {
	huge := strings.Repeat("h", 64<<10)
	cases := map[string][]string{
		"single":            {"x/kind/i/urn:1"},
		"identical":         {"a/b", "a/b", "a/b"},
		"prefixes":          {"abc", "a", "abcd", "ab", "abcde", "a"},
		"no shared prefix":  {"zeta", "alpha", "mu", "beta"},
		"64 KiB key":        {huge, huge + "x", "h", huge[:100]},
		"binary and high":   {"\x00", "\xff\xff", "\x00\x00", "\x7f\x80"},
		"store-shaped":      {"x/actor/svc:a/i/urn:1", "x/actor/svc:a/i/urn:2", "x/kind/i/i/urn:1", "x/kind/i/i/urn:2"},
		"shared then fewer": {"aaaa", "aaab", "ab", "b"},
	}
	rng := rand.New(rand.NewSource(32))
	for n := 0; n < 200; n++ {
		keys := make([]string, 1+rng.Intn(40))
		for i := range keys {
			// A small alphabet and short keys: many shared prefixes,
			// duplicates and keys that prefix one another.
			b := make([]byte, 1+rng.Intn(6))
			for j := range b {
				b[j] = "ab/"[rng.Intn(3)]
			}
			keys[i] = string(b)
		}
		cases[fmt.Sprint("random ", n)] = keys
	}
	for name, keys := range cases {
		set := make(map[string]bool)
		for _, k := range keys {
			set[k] = true
		}
		want := make([]string, 0, len(set))
		for k := range set {
			want = append(want, k)
		}
		sort.Strings(want)
		for _, del := range []bool{false, true} {
			distinct := SortKeys(slices.Clone(keys))
			if !slices.Equal(distinct, want) {
				t.Fatalf("%s: SortKeys = %q, want %q", name, distinct, want)
			}
			body := AppendKeyBatch([]byte("prefix"), distinct, del)
			if string(body[:6]) != "prefix" {
				t.Fatalf("%s: AppendKeyBatch overwrote dst", name)
			}
			b, got := decodeKeys(t, body[6:])
			if !slices.Equal(got, want) || b.Delete() != del {
				t.Fatalf("%s (delete %v): decoded %q delete %v, want %q", name, del, got, b.Delete(), want)
			}
			for i, k := range b.All() {
				if i > 0 || string(k) != want[0] {
					t.Fatalf("%s: a loop that stops at the first key got %q at %d", name, k, i)
				}
				break
			}
		}
	}
}

// TestSortKeysMatchesSort holds the grouped sort to a plain one on runs
// large enough to be grouped: posting-shaped keys, keys that end inside
// or right at the word the groups are dealt by, zero bytes that the
// word's padding must not confuse with a shorter key, duplicates, and
// runs with too many distinct words to group.
func TestSortKeysMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	dims := []string{"actor", "data", "grp", "int", "kind", "sess", "svc", "time"}
	for n := 0; n < 300; n++ {
		var keys []string
		size := 64 + rng.Intn(400)
		switch n % 3 {
		case 0: // postings
			for len(keys) < size {
				keys = append(keys, fmt.Sprintf("x/%s/urn:%d/i/urn:%08x", dims[rng.Intn(len(dims))], rng.Intn(4), rng.Intn(50)))
			}
		case 1: // a shared prefix, then heads that pad to the same word
			prefix := strings.Repeat("p", rng.Intn(20))
			heads := []string{"", "\x00", "a", "a\x00", "a\x00\x00\x00\x00\x00\x00\x00", "b"}
			for len(keys) < size {
				b := make([]byte, rng.Intn(4))
				for j := range b {
					b[j] = "\x00\x01a"[rng.Intn(3)]
				}
				head := heads[rng.Intn(len(heads))]
				if len(head) == 8 || head == "b" {
					head += string(b) // past the word: sorted within the group
				}
				keys = append(keys, prefix+head)
			}
		default: // more distinct words than groups
			for len(keys) < size {
				keys = append(keys, fmt.Sprintf("k/%016x", rng.Uint64()%uint64(size)))
			}
		}
		want := slices.Compact(slices.Sorted(slices.Values(keys)))
		if got := SortKeys(slices.Clone(keys)); !slices.Equal(got, want) {
			t.Fatalf("case %d: SortKeys of %d keys differs from a plain sort", n, len(keys))
		}
	}
}

// TestKeyShareSumsToSize: the shares of an entry's keys add up to the
// entry, and differ by at most a byte.
func TestKeyShareSumsToSize(t *testing.T) {
	for _, size := range []int64{18, 19, 100, 4097, 1 << 20} {
		for _, n := range []int{1, 2, 3, 7, 18} {
			var sum int64
			lo, hi := size, int64(0)
			for i := range n {
				s := KeyShare(size, n, i)
				sum += s
				lo, hi = min(lo, s), max(hi, s)
			}
			if sum != size || hi-lo > 1 {
				t.Errorf("size %d over %d keys: shares sum to %d, range [%d, %d]", size, n, sum, lo, hi)
			}
		}
	}
}

// TestFitKeyBatch: an entry takes keys up to KeyBatchMax bytes, and a
// key longer than that still gets an entry of its own.
func TestFitKeyBatch(t *testing.T) {
	half := strings.Repeat("k", KeyBatchMax/2)
	big := strings.Repeat("k", KeyBatchMax+1)
	for _, c := range []struct {
		keys []string
		want int
	}{
		{[]string{"a"}, 1},
		{[]string{"a", "b", "c"}, 3},
		{[]string{half, half, "c"}, 2},
		{[]string{half, half}, 2},
		{[]string{big, "a"}, 1},
		{[]string{"a", big}, 1},
	} {
		if got := FitKeyBatch(c.keys); got != c.want {
			t.Errorf("FitKeyBatch(%d keys) = %d, want %d", len(c.keys), got, c.want)
		}
	}
}

// keyBatchBody writes a body by hand, for the decoder's refusals.
func keyBatchBody(flags byte, count uint64, keys ...[2]any) []byte {
	b := binary.AppendUvarint([]byte{flags}, count)
	for _, k := range keys {
		rest := k[1].(string)
		b = binary.AppendUvarint(b, uint64(k[0].(int)))
		b = binary.AppendUvarint(b, uint64(len(rest)))
		b = append(b, rest...)
	}
	return b
}

func TestParseKeyBatchRefuses(t *testing.T) {
	for name, body := range map[string][]byte{
		"empty":                      nil,
		"unknown flag":               keyBatchBody(2, 1, [2]any{0, "a"}),
		"no count":                   {0},
		"zero keys":                  keyBatchBody(0, 0),
		"count larger than the body": keyBatchBody(0, 1000, [2]any{0, "a"}),
		"count past its keys":        keyBatchBody(0, 2, [2]any{0, "abc"}),
		"shared past previous key":   keyBatchBody(0, 2, [2]any{0, "ab"}, [2]any{3, "c"}),
		"first key shares":           keyBatchBody(0, 1, [2]any{1, "a"}),
		"rest past the body":         append(keyBatchBody(0, 1), 0, 5, 'a'),
		"empty key":                  keyBatchBody(0, 2, [2]any{0, "a"}, [2]any{0, ""}),
		"trailing bytes":             append(keyBatchBody(0, 1, [2]any{0, "a"}), 'x'),
		"overlong count":             append([]byte{0}, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01),
		"overlong shared":            append([]byte{0, 1}, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01),
		"overlong rest length":       append([]byte{0, 1, 0}, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01),
	} {
		if b, err := ParseKeyBatch(body); err == nil {
			t.Errorf("%s: accepted, %d keys", name, b.Len())
		}
	}
}

func FuzzKeyBatch(f *testing.F) {
	valid := AppendKeyBatch(nil, []string{"x/actor/a/1", "x/actor/a/2", "x/kind/i/1"}, false)
	f.Add(valid)
	f.Add(valid[:len(valid)-2])
	f.Add(AppendKeyBatch(nil, []string{"k"}, true))
	f.Add(keyBatchBody(0, 2, [2]any{0, "ab"}, [2]any{9, "c"})) // shared past the previous key
	f.Add(keyBatchBody(0, 1<<40, [2]any{0, "a"}))              // count larger than the body
	f.Fuzz(func(t *testing.T, body []byte) {
		b, err := ParseKeyBatch(body) // must not panic, whatever body is
		if err != nil {
			return
		}
		var keys []string
		for _, k := range b.All() {
			if len(k) == 0 {
				t.Fatal("an accepted batch yielded an empty key")
			}
			keys = append(keys, string(k))
		}
		if len(keys) != b.Len() {
			t.Fatalf("yielded %d keys, Len says %d", len(keys), b.Len())
		}
		// A body that parses names its own end: no torn prefix of it is
		// taken for a whole batch.
		if _, err := ParseKeyBatch(body[:len(body)-1]); err == nil {
			t.Fatal("a body cut short by one byte still parses")
		}
		// What a writer would make of the keys decodes to them again.
		distinct := SortKeys(slices.Clone(keys))
		if _, again := decodeKeys(t, AppendKeyBatch(nil, distinct, b.Delete())); !slices.Equal(again, distinct) {
			t.Fatalf("re-encoded %q decodes to %q", distinct, again)
		}
	})
}
