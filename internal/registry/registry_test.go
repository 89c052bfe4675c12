package registry

import (
	"strings"
	"testing"
	"time"

	"preserv/internal/core"
	"preserv/internal/ontology"
	"preserv/internal/soap"
)

func gzipDescription() *ServiceDescription {
	return &ServiceDescription{
		Service:     "svc:gzip",
		Description: "gzip compression service",
		Operations: []Operation{{
			Name: "compress",
			Inputs: []PartDecl{
				{Name: "sample", SemanticType: ontology.TypePermutedEncoded},
			},
			Outputs: []PartDecl{
				{Name: "compressed", SemanticType: ontology.TypeCompressed},
			},
		}},
	}
}

func encodeDescription() *ServiceDescription {
	return &ServiceDescription{
		Service: "svc:encode",
		Operations: []Operation{{
			Name: "encode",
			Inputs: []PartDecl{
				{Name: "sample", SemanticType: ontology.TypeProtein},
				{Name: "grouping", SemanticType: ontology.TypeGroupingSpec},
			},
			Outputs: []PartDecl{
				{Name: "encoded", SemanticType: ontology.TypeGroupEncoded},
			},
		}},
	}
}

func TestPublishLookup(t *testing.T) {
	r := NewRegistry()
	if err := r.Publish(gzipDescription()); err != nil {
		t.Fatal(err)
	}
	d, ok := r.Lookup("svc:gzip")
	if !ok {
		t.Fatal("published service not found")
	}
	if d.Description != "gzip compression service" {
		t.Errorf("description = %q", d.Description)
	}
	if _, ok := r.Lookup("svc:ghost"); ok {
		t.Error("unknown service found")
	}
}

func TestPublishValidation(t *testing.T) {
	r := NewRegistry()
	bad := []*ServiceDescription{
		{Service: "", Operations: []Operation{{Name: "op"}}},
		{Service: "svc:x"},
		{Service: "svc:x", Operations: []Operation{{Name: ""}}},
		{Service: "svc:x", Operations: []Operation{{Name: "a"}, {Name: "a"}}},
		{Service: "svc:x", Operations: []Operation{{
			Name:   "a",
			Inputs: []PartDecl{{Name: "", SemanticType: "t"}},
		}}},
		{Service: "svc:x", Operations: []Operation{{
			Name:   "a",
			Inputs: []PartDecl{{Name: "p", SemanticType: ""}},
		}}},
	}
	for i, d := range bad {
		if err := r.Publish(d); err == nil {
			t.Errorf("bad description %d accepted", i)
		}
	}
}

func TestPartType(t *testing.T) {
	r := NewRegistry()
	r.Publish(gzipDescription())
	typ, err := r.PartType("svc:gzip", "compress", Input, "sample")
	if err != nil {
		t.Fatal(err)
	}
	if typ != ontology.TypePermutedEncoded {
		t.Errorf("input type = %q", typ)
	}
	typ, err = r.PartType("svc:gzip", "compress", Output, "compressed")
	if err != nil {
		t.Fatal(err)
	}
	if typ != ontology.TypeCompressed {
		t.Errorf("output type = %q", typ)
	}
	if _, err := r.PartType("svc:none", "compress", Input, "sample"); err == nil {
		t.Error("unknown service should error")
	}
	if _, err := r.PartType("svc:gzip", "none", Input, "sample"); err == nil {
		t.Error("unknown operation should error")
	}
	if _, err := r.PartType("svc:gzip", "compress", Input, "none"); err == nil {
		t.Error("unknown part should error")
	}
	if _, err := r.PartType("svc:gzip", "compress", Output, "sample"); err == nil {
		t.Error("wrong direction should error")
	}
}

func TestMetadata(t *testing.T) {
	r := NewRegistry()
	r.Publish(gzipDescription())
	if err := r.AttachMetadata("svc:gzip", "category", "compression"); err != nil {
		t.Fatal(err)
	}
	v, ok := r.Metadata("svc:gzip", "category")
	if !ok || v != "compression" {
		t.Errorf("metadata = %q %v", v, ok)
	}
	if err := r.AttachMetadata("svc:ghost", "k", "v"); err == nil {
		t.Error("metadata on unknown service accepted")
	}
	if _, ok := r.Metadata("svc:gzip", "missing"); ok {
		t.Error("missing metadata key found")
	}
}

func TestFindByMetadata(t *testing.T) {
	r := NewRegistry()
	r.Publish(gzipDescription())
	r.Publish(encodeDescription())
	r.AttachMetadata("svc:gzip", "category", "compression")
	r.AttachMetadata("svc:encode", "category", "encoding")
	got := r.FindByMetadata("category", "compression")
	if len(got) != 1 || got[0] != "svc:gzip" {
		t.Errorf("Find = %v", got)
	}
	if got := r.FindByMetadata("category", "nonexistent"); len(got) != 0 {
		t.Errorf("Find nonexistent = %v", got)
	}
}

func TestServicesSorted(t *testing.T) {
	r := NewRegistry()
	r.Publish(gzipDescription())
	r.Publish(encodeDescription())
	svcs := r.Services()
	if len(svcs) != 2 || svcs[0] != "svc:encode" || svcs[1] != "svc:gzip" {
		t.Errorf("Services = %v", svcs)
	}
}

func TestPublishReplaces(t *testing.T) {
	r := NewRegistry()
	r.Publish(gzipDescription())
	updated := gzipDescription()
	updated.Description = "v2"
	if err := r.Publish(updated); err != nil {
		t.Fatal(err)
	}
	d, _ := r.Lookup("svc:gzip")
	if d.Description != "v2" {
		t.Errorf("replace failed: %q", d.Description)
	}
}

func TestPublishIsolatesCaller(t *testing.T) {
	r := NewRegistry()
	d := gzipDescription()
	r.Publish(d)
	d.Operations[0].Name = "mutated"
	got, _ := r.Lookup("svc:gzip")
	if got.Operations[0].Name != "compress" {
		t.Error("registry aliased the caller's slice")
	}
}

func TestHTTPEndToEnd(t *testing.T) {
	r := NewRegistry()
	srv, err := Serve(r, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := NewClient(srv.URL, nil)

	if err := c.Publish(gzipDescription()); err != nil {
		t.Fatal(err)
	}
	d, err := c.Lookup("svc:gzip")
	if err != nil {
		t.Fatal(err)
	}
	if d.Service != "svc:gzip" || len(d.Operations) != 1 {
		t.Fatalf("lookup = %+v", d)
	}
	typ, err := c.PartType("svc:gzip", "compress", Input, "sample")
	if err != nil {
		t.Fatal(err)
	}
	if typ != ontology.TypePermutedEncoded {
		t.Errorf("part type = %q", typ)
	}
	if err := c.AttachMetadata("svc:gzip", "category", "compression"); err != nil {
		t.Fatal(err)
	}
	found, err := c.FindByMetadata("category", "compression")
	if err != nil {
		t.Fatal(err)
	}
	if len(found) != 1 || found[0] != "svc:gzip" {
		t.Errorf("find = %v", found)
	}
	if c.Calls() != 5 {
		t.Errorf("client made %d calls, want 5", c.Calls())
	}
}

func TestHTTPErrors(t *testing.T) {
	r := NewRegistry()
	srv, err := Serve(r, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := NewClient(srv.URL, nil)

	if _, err := c.Lookup("svc:ghost"); err == nil {
		t.Error("lookup of unknown service should fail")
	}
	if _, err := c.PartType("svc:ghost", "x", Input, "y"); err == nil {
		t.Error("part type of unknown service should fail")
	}
	if err := c.Publish(&ServiceDescription{Service: ""}); err == nil {
		t.Error("publishing invalid description should fail")
	}
	if err := c.AttachMetadata("svc:ghost", "k", "v"); err == nil {
		t.Error("attach to unknown service should fail")
	}
	var faultMsg string
	if _, err := c.Lookup("svc:ghost"); err != nil {
		faultMsg = err.Error()
	}
	if !strings.Contains(faultMsg, "svc:ghost") {
		t.Errorf("fault should carry the service name: %q", faultMsg)
	}
}

// Close returns promptly while a client's connection lies idle, and
// the client's next call fails cleanly.
func TestCloseWithIdleClient(t *testing.T) {
	srv, err := Serve(NewRegistry(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(srv.URL, nil)
	if err := c.Publish(gzipDescription()); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Lookup("svc:gzip"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if d := time.Since(start); d >= time.Second {
		t.Fatalf("Close took %v with an idle client connection, want < 1s", d)
	}
	if _, err := c.Lookup("svc:gzip"); err == nil {
		t.Error("a lookup after Close succeeded")
	}
}

func TestClientAgainstDeadServer(t *testing.T) {
	c := NewClient("http://127.0.0.1:1", nil)
	if _, err := c.Lookup("svc:x"); err == nil {
		t.Error("dead server lookup should fail")
	}
}

func TestOperationsOverHTTP(t *testing.T) {
	r := NewRegistry()
	r.Publish(gzipDescription())
	r.Publish(encodeDescription())
	srv, err := Serve(r, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := NewClient(srv.URL, nil)
	ops, err := c.Operations("svc:gzip")
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) != 1 || ops[0] != "compress" {
		t.Errorf("Operations = %v", ops)
	}
	if _, err := c.Operations("svc:ghost"); err == nil {
		t.Error("operations of unknown service should fail")
	}
}

func TestWildcardPartDecl(t *testing.T) {
	r := NewRegistry()
	err := r.Publish(&ServiceDescription{
		Service: "svc:collator",
		Operations: []Operation{{
			Name:    "collate",
			Inputs:  []PartDecl{{Name: "sizes-*", SemanticType: "bio:SizesTable"}},
			Outputs: []PartDecl{{Name: "table", SemanticType: "bio:SizesTable"}},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	typ, err := r.PartType("svc:collator", "collate", Input, "sizes-007")
	if err != nil || typ != "bio:SizesTable" {
		t.Errorf("wildcard resolution = %q, %v", typ, err)
	}
	if _, err := r.PartType("svc:collator", "collate", Input, "other-007"); err == nil {
		t.Error("non-matching prefix should fail")
	}
	// Exact declarations win over wildcards.
	r.Publish(&ServiceDescription{
		Service: "svc:mixed",
		Operations: []Operation{{
			Name: "op",
			Inputs: []PartDecl{
				{Name: "x-*", SemanticType: "t:Wild"},
				{Name: "x-1", SemanticType: "t:Exact"},
			},
			Outputs: []PartDecl{{Name: "out", SemanticType: "t:Out"}},
		}},
	})
	typ, err = r.PartType("svc:mixed", "op", Input, "x-1")
	if err != nil || typ != "t:Exact" {
		t.Errorf("exact-over-wildcard = %q, %v", typ, err)
	}
}

func TestOperationPartTypeHelpers(t *testing.T) {
	d := encodeDescription()
	op, ok := d.Operation("encode")
	if !ok {
		t.Fatal("operation not found")
	}
	if _, ok := d.Operation("none"); ok {
		t.Error("unknown operation found")
	}
	typ, ok := op.PartType(Input, "grouping")
	if !ok || typ != ontology.TypeGroupingSpec {
		t.Errorf("PartType = %q %v", typ, ok)
	}
	if _, ok := op.PartType(Output, "grouping"); ok {
		t.Error("input part found among outputs")
	}
}

func TestRegistryHandlerInterface(t *testing.T) {
	r := NewRegistry()
	h := r.Handler()
	if len(h.Actions()) != 6 {
		t.Errorf("actions = %v", h.Actions())
	}
	if _, err := h.Handle("urn:other", nil); err == nil {
		t.Error("unknown action should fail")
	}
	for _, action := range []string{ActionPublish, ActionLookup, ActionPartType, ActionAttach, ActionFind} {
		msg, err := soap.ReadEnvelope([]byte(`<Envelope><Header><action>` + action + `</action></Header><Body>junk</Body></Envelope>`))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.Handle(action, msg); err == nil {
			t.Errorf("garbage %s body should fail", action)
		}
	}
}

func TestConcurrentRegistryUse(t *testing.T) {
	r := NewRegistry()
	r.Publish(gzipDescription())
	done := make(chan bool)
	for g := 0; g < 8; g++ {
		go func(g int) {
			for i := 0; i < 200; i++ {
				r.Lookup("svc:gzip")
				r.PartType("svc:gzip", "compress", Input, "sample")
				if g == 0 {
					r.Publish(encodeDescription())
				}
			}
			done <- true
		}(g)
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	var _ core.ActorID = r.Services()[0]
}
