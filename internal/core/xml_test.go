package core

import (
	"encoding/xml"
	"reflect"
	"testing"
	"unsafe"

	"preserv/internal/xmlwire"
)

// decodeRecords reads every <record> child of doc's root with one
// RecordDecoder, as a message's DecodeXML does.
func decodeRecords(t *testing.T, doc []byte) []Record {
	t.Helper()
	d := xmlwire.NewDecoder(doc)
	if err := d.Root(); err != nil {
		t.Fatal(err)
	}
	var rd RecordDecoder
	var out []Record
	err := d.Children(func(name []byte) error {
		out = append(out, Record{})
		return rd.Decode(d, &out[len(out)-1])
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// The records of one message decode as encoding/xml decodes each of
// them, and the short strings they repeat are copied once.
func TestRecordDecoderMatchesEncodingXML(t *testing.T) {
	var records []Record
	for i := 0; i < 40; i++ {
		if i%3 == 2 {
			records = append(records, *NewActorStateRecord(sampleActorStatePA()))
		} else {
			records = append(records, *NewInteractionRecord(sampleInteractionPA()))
		}
	}
	doc := []byte("<records>")
	for i := range records {
		var err error
		if doc, err = records[i].AppendXML(doc, "record"); err != nil {
			t.Fatal(err)
		}
	}
	doc = append(doc, "</records>"...)
	got := decodeRecords(t, doc)
	if len(got) != len(records) {
		t.Fatalf("decoded %d records, want %d", len(got), len(records))
	}
	for i := range records {
		var want Record
		data, _ := records[i].AppendXML(nil, "record")
		if err := xml.Unmarshal(data, &want); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Fatalf("record %d: RecordDecoder differs from xml.Unmarshal\n got %+v\nwant %+v", i, got[i], want)
		}
	}
	a, b := got[0].Interaction, got[3].Interaction
	if unsafe.StringData(string(a.Asserter)) != unsafe.StringData(string(b.Asserter)) ||
		unsafe.StringData(a.Request.Parts[0].ContentType) != unsafe.StringData(b.Request.Parts[0].ContentType) {
		t.Error("a short string repeated in the message was copied again")
	}
	if unsafe.StringData(a.LocalID) == unsafe.StringData(b.LocalID) {
		t.Error("local ids, which are not looked up, share memory")
	}
}

// A slab's lists sit side by side without overlapping: a closed list
// appended to reallocates, and a list that outgrows its chunk moves.
func TestSlabListsStayApart(t *testing.T) {
	d := xmlwire.NewDecoder(make([]byte, 1000))
	var s slab[int]
	var a, b, c []int
	for i := range 5 {
		*s.add(d, &a) = i
	}
	s.close(&a)
	if len(a) != 5 || cap(a) != 5 {
		t.Fatalf("closed list: len %d cap %d, want 5 and 5", len(a), cap(a))
	}
	*s.add(d, &b) = 10
	s.close(&b)
	*s.one(d) = 20
	a = append(a, 5)
	for i := range 3 {
		*s.add(d, &c) = 30 + i
	}
	s.close(&c)
	if !reflect.DeepEqual(a, []int{0, 1, 2, 3, 4, 5}) || !reflect.DeepEqual(b, []int{10}) || !reflect.DeepEqual(c, []int{30, 31, 32}) {
		t.Errorf("lists overlap: %v %v %v", a, b, c)
	}
	if s.handed != 10 {
		t.Errorf("handed = %d, want 10", s.handed)
	}
}
