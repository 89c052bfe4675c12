package core

import (
	"fmt"
	"reflect"
	"testing"

	"preserv/internal/ids"
)

// storageKeyReference is StorageKey as it was written before it became
// allocation-lean; keys are stored, so the two must agree byte for byte.
func storageKeyReference(r *Record) string {
	kindTag := "?"
	switch r.Kind {
	case KindInteraction:
		kindTag = "i"
	case KindActorState:
		kindTag = "s"
	}
	return fmt.Sprintf("%s/%s/%s/%s/%s", kindTag, r.InteractionID(), r.View(), r.Asserter(), r.LocalID())
}

// dataIDsReference is DataIDs as it was written with a map.
func dataIDsReference(r *Record) []ids.ID {
	if r.Kind != KindInteraction || r.Interaction == nil {
		return nil
	}
	var out []ids.ID
	seen := make(map[ids.ID]bool)
	for _, msg := range []*Message{&r.Interaction.Request, &r.Interaction.Response} {
		for _, p := range msg.Parts {
			if p.DataID.Valid() && !seen[p.DataID] {
				seen[p.DataID] = true
				out = append(out, p.DataID)
			}
		}
	}
	return out
}

func leanTestRecords() []*Record {
	shared := ids.New()
	repeated := sampleInteractionPA()
	repeated.Request.Parts = []MessagePart{{Name: "a", DataID: shared}, {Name: "b"}, {Name: "c", DataID: shared}, {Name: "d", DataID: ids.New()}}
	repeated.Response.Parts = []MessagePart{{Name: "e", DataID: shared}, {Name: "f", DataID: ids.New()}}
	noData := sampleInteractionPA()
	noData.Request.Parts, noData.Response.Parts = []MessagePart{{Name: "literal"}}, nil
	odd := sampleActorStatePA()
	odd.View, odd.Asserter, odd.LocalID = 7, "", "with/slash and é"
	return []*Record{
		NewInteractionRecord(sampleInteractionPA()),
		NewActorStateRecord(sampleActorStatePA()),
		NewInteractionRecord(repeated),
		NewInteractionRecord(noData),
		NewActorStateRecord(odd),
		{Kind: KindInteraction}, // payload missing
		{Kind: 9, Interaction: sampleInteractionPA()},
		{},
	}
}

func TestStorageKeyAndDataIDsUnchanged(t *testing.T) {
	for i, r := range leanTestRecords() {
		if got, want := r.StorageKey(), storageKeyReference(r); got != want {
			t.Errorf("record %d: StorageKey = %q, want %q", i, got, want)
		}
		if got, want := r.DataIDs(), dataIDsReference(r); !reflect.DeepEqual(got, want) {
			t.Errorf("record %d: DataIDs = %v, want %v", i, got, want)
		}
	}
}

// The store stages and the index posts every record by its key and data
// ids; both are on the write path's profile. One allocation each: the
// key's bytes, the id slice.
func TestStorageKeyAndDataIDsAllocs(t *testing.T) {
	for i, r := range leanTestRecords()[:4] {
		if n := testing.AllocsPerRun(100, func() { _ = r.StorageKey() }); n > 1 {
			t.Errorf("record %d: StorageKey costs %.0f allocs, want <= 1", i, n)
		}
		if n := testing.AllocsPerRun(100, func() { _ = r.DataIDs() }); n > 1 {
			t.Errorf("record %d: DataIDs costs %.0f allocs, want <= 1", i, n)
		}
	}
}

func TestViewUnmarshalTextDoesNotAllocate(t *testing.T) {
	var v View
	text := []byte("receiver")
	if n := testing.AllocsPerRun(100, func() { v.UnmarshalText(text) }); n != 0 || v != ReceiverView {
		t.Errorf("UnmarshalText costs %.0f allocs, parsed %v", n, v)
	}
}
