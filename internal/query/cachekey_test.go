package query_test

import (
	"testing"
	"time"

	"preserv/internal/ids"
	"preserv/internal/prep"
	"preserv/internal/query"
)

// CacheKey's form is pinned byte for byte, as fmt.Sprintf with %q
// quoting wrote it: the free-form fields carry the separators, quotes
// and non-ASCII and control characters a key must quote.
func TestCacheKeyGolden(t *testing.T) {
	src := &ids.SeqSource{Prefix: 0xCA}
	for _, c := range []struct {
		q    prep.Query
		want string
	}{
		{prep.Query{}, "i=urn:pasoa:00000000000000000000000000000000|s=urn:pasoa:00000000000000000000000000000000|g=urn:pasoa:00000000000000000000000000000000|d=urn:pasoa:00000000000000000000000000000000|k=\"\"|a=\"\"|v=\"\"|t=\"\"|since=-|until=-|l=0"},
		{prep.Query{SessionID: src.NewID()}, "i=urn:pasoa:00000000000000000000000000000000|s=urn:pasoa:000000ca000001d50000000000000001|g=urn:pasoa:00000000000000000000000000000000|d=urn:pasoa:00000000000000000000000000000000|k=\"\"|a=\"\"|v=\"\"|t=\"\"|since=-|until=-|l=0"},
		{prep.Query{InteractionID: src.NewID(), SessionID: src.NewID(), GroupID: src.NewID(), DataID: src.NewID(), Kind: "interaction", Limit: 25}, "i=urn:pasoa:000000ca000001d50000000000000002|s=urn:pasoa:000000ca000001d50000000000000003|g=urn:pasoa:000000ca000001d50000000000000004|d=urn:pasoa:000000ca000001d50000000000000005|k=\"interaction\"|a=\"\"|v=\"\"|t=\"\"|since=-|until=-|l=25"},
		{prep.Query{Asserter: `svc:a|s=x`, Service: `svc:"quoted"`, StateKind: "k=v|l=3"}, "i=urn:pasoa:00000000000000000000000000000000|s=urn:pasoa:00000000000000000000000000000000|g=urn:pasoa:00000000000000000000000000000000|d=urn:pasoa:00000000000000000000000000000000|k=\"\"|a=\"svc:a|s=x\"|v=\"svc:\\\"quoted\\\"\"|t=\"k=v|l=3\"|since=-|until=-|l=0"},
		{prep.Query{Asserter: "svc:Ünïcødé", Service: "svc:サービス", StateKind: "état\x00\t\n", Kind: "actorState"}, "i=urn:pasoa:00000000000000000000000000000000|s=urn:pasoa:00000000000000000000000000000000|g=urn:pasoa:00000000000000000000000000000000|d=urn:pasoa:00000000000000000000000000000000|k=\"actorState\"|a=\"svc:Ünïcødé\"|v=\"svc:サービス\"|t=\"état\\x00\\t\\n\"|since=-|until=-|l=0"},
		{prep.Query{Service: "svc:a", Asserter: "", StateKind: `\\`, Since: time.Unix(1117584000, 123), Until: time.Unix(-5, 0).UTC(), Limit: -1}, "i=urn:pasoa:00000000000000000000000000000000|s=urn:pasoa:00000000000000000000000000000000|g=urn:pasoa:00000000000000000000000000000000|d=urn:pasoa:00000000000000000000000000000000|k=\"\"|a=\"\"|v=\"svc:a\"|t=\"\\\\\\\\\"|since=1117584000000000123|until=-5000000000|l=-1"},
		{prep.Query{Since: time.Date(1, 1, 1, 0, 0, 0, 1, time.UTC)}, "i=urn:pasoa:00000000000000000000000000000000|s=urn:pasoa:00000000000000000000000000000000|g=urn:pasoa:00000000000000000000000000000000|d=urn:pasoa:00000000000000000000000000000000|k=\"\"|a=\"\"|v=\"\"|t=\"\"|since=-6795364578871345151|until=-|l=0"},
	} {
		if got := query.CacheKey(&c.q); got != c.want {
			t.Errorf("CacheKey(%+v) =\n%s\nwant\n%s", c.q, got, c.want)
		}
	}
}
