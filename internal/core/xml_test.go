package core

import (
	"encoding/xml"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"unicode/utf8"
	"unsafe"

	"preserv/internal/reuse"
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
	for _, doc := range fastPathExits() {
		checkRecordXML(t, []byte(doc))
	}
}

// checkRecordXML holds RecordDecoder.Decode to xml.Unmarshal on one
// document whose root is a record: equal records where both accept it;
// where only encoding/xml does, a refusal as xmlwire.ErrUnsupported;
// where only the decoder does, a document with a non-ASCII name, which
// it does not check against Unicode's letter classes.
func checkRecordXML(t *testing.T, doc []byte) {
	t.Helper()
	var got, want Record
	wantErr := xml.Unmarshal(doc, &want)
	d := xmlwire.NewDecoder(doc)
	err := d.Root()
	if err == nil {
		var rd RecordDecoder
		err = rd.Decode(d, &got)
	}
	switch {
	case err != nil && wantErr != nil:
	case err != nil:
		if !errors.Is(err, xmlwire.ErrUnsupported) {
			t.Fatalf("RecordDecoder refuses what encoding/xml accepts, and not as unsupported: %v\n%q", err, doc)
		}
	case wantErr != nil:
		if utf8.RuneCount(doc) == len(doc) {
			t.Fatalf("RecordDecoder accepts what encoding/xml refuses (%v)\n%q", wantErr, doc)
		}
	case !reflect.DeepEqual(got, want):
		t.Fatalf("RecordDecoder differs from xml.Unmarshal on %q\n got %+v\nwant %+v", doc, got, want)
	}
}

const exitID = "urn:pasoa:0123456789abcdef0123456789abcdef"

// exitRecords are an interaction record and an actor-state record as
// the encoder writes them, every field present.
var exitRecords = [2]string{
	`<record><kind>interaction</kind><interactionPAssertion><localId>pa-1</localId><asserter>svc:enactor</asserter>` +
		`<interaction><id>` + exitID + `</id><sender>svc:enactor</sender><receiver>svc:gzip</receiver><operation>compress</operation></interaction>` +
		`<view>sender</view><request><name>invoke</name><part><name>sample</name><dataId>` + exitID + `</dataId>` +
		`<contentType>text/plain</contentType><style>verbatim</style><content>TUtWTEFU</content></part></request>` +
		`<response><name>result</name></response><group><type>session</type><id>` + exitID + `</id><seq>1</seq></group>` +
		`<timestamp>2005-06-01T12:00:00.5Z</timestamp></interactionPAssertion></record>`,
	`<record><kind>actorState</kind><actorStatePAssertion><localId>as-1</localId><asserter>svc:gzip</asserter>` +
		`<interaction><id>` + exitID + `</id><sender>svc:enactor</sender><receiver>svc:gzip</receiver><operation>compress</operation></interaction>` +
		`<view>receiver</view><stateKind>script</stateKind><content>IyEvYmluL3No</content>` +
		`<group><type>session</type><id>` + exitID + `</id><seq>2</seq></group><timestamp>2005-06-01T12:00:01Z</timestamp></actorStatePAssertion></record>`,
}

// fastPathExits returns records each of which enters one of the
// decoder's fast paths — a plain start tag, a plain text run read a
// word at a time, the usual end tag, an id, view, kind, number or
// timestamp read as it is parsed, a short string shared through the
// intern table — and leaves it partway, for the general path to finish
// or to refuse as encoding/xml refuses it.
func fastPathExits() []string {
	docs := exitRecords[:]
	// edit replaces old, once, in the first of exitRecords holding it.
	edit := func(old, new string) {
		for _, rec := range exitRecords {
			if strings.Contains(rec, old) {
				docs = append(docs, strings.Replace(rec, old, new, 1))
				return
			}
		}
		panic("no exit record holds " + old)
	}
	field := func(tag, old string, news ...string) {
		for _, v := range news {
			edit("<"+tag+">"+old+"</"+tag+">", "<"+tag+">"+v+"</"+tag+">")
		}
	}
	// References and CR in a short string, a local id and base64.
	field("asserter", "svc:enactor", "svc:a&amp;b", "svc:&#x41;", "svc:a\r\nb", "svc:a\rb", "svc:&bogus;")
	field("localId", "pa-1", "pa&amp;1", "pa-&#x41;", "pa\r\n1")
	field("content", "TUtWTEFU", "TUtW&#x54;EFU", "TUtW\r\nTEFU", "TUtW&amp;TEFU")
	// Non-ASCII and invalid UTF-8.
	field("asserter", "svc:enactor", "svc:é", "svc:世界🙂", "svc:\xff", "svc:\uFFFE")
	// A prefixed child, attributes, self-closing empties.
	edit("<asserter>svc:enactor</asserter>", `<p:asserter xmlns:p="urn:p">svc:p</p:asserter>`)
	edit("<id>"+exitID+"</id><sender>", `<q:id xmlns:q="urn:q">`+exitID+`</q:id><sender>`)
	edit("<asserter>svc:enactor</asserter>", `<asserter a="1" b='x'>svc:a</asserter>`)
	edit("<id>"+exitID+"</id><sender>", `<id x="y">`+exitID+`</id><sender>`)
	for _, tag := range []string{"localId", "asserter", "operation", "seq", "view", "kind", "content", "timestamp", "name"} {
		docs = append(docs, selfClose(docs[0], tag))
	}
	docs = append(docs, selfClose(docs[1], "stateKind"), selfClose(docs[0], "id"))
	// Whitespace, a comment and a processing instruction between
	// children and inside tags.
	edit("</localId><asserter>", "</localId>\n\t <!-- c --> <?pi x?>\r\n<asserter>")
	edit("<asserter>svc:enactor</asserter>", "<asserter >svc:enactor</asserter\n>")
	edit("<view>sender</view>", "<view>sender</view >")
	// Children out of the encoder's order.
	docs = append(docs, `<record><interactionPAssertion><timestamp>2005-06-01T12:00:00Z</timestamp><group><seq>3</seq><id>`+exitID+
		`</id><type>thread</type></group><view>receiver</view><response><part><content>aGk=</content><name>out</name></part></response>`+
		`<interaction><operation>op</operation><sender>svc:s</sender></interaction><localId>x</localId></interactionPAssertion><kind>interaction</kind></record>`)
	// Short strings that share a slot of the intern table, repeated.
	a, b := slotCollision()
	docs = append(docs, fmt.Sprintf(`<record><kind>interaction</kind><interactionPAssertion><asserter>%[1]s</asserter><interaction>`+
		`<sender>%[1]s</sender><receiver>%[2]s</receiver><operation>%[1]s</operation></interaction><request><name>%[2]s</name>`+
		`<part><name>%[1]s</name><contentType>%[2]s</contentType></part><part><name>%[2]s</name><style>%[1]s</style></part></request>`+
		`<group><type>%[2]s</type></group><group><type>%[1]s</type></group></interactionPAssertion></record>`, a, b))
	// Text runs that end on a word boundary and a byte either side of
	// it, plainly, at a reference, at a non-ASCII byte, at a control
	// byte, at '>'; end tags that differ in their last byte, for names
	// compared as one word, two words and more.
	for _, n := range []int{7, 8, 9, 15, 16, 17} {
		run := strings.Repeat("abcdefgh", 3)[:n]
		field("asserter", "svc:enactor", run, run+"&amp;", run+"é", run+"\x01", run+">", run+"]]>")
		field("localId", "pa-1", run, run+"\r\n")
	}
	edit("</localId>", "</localIX>")
	edit("</asserter>", "</asserteX>")
	edit("</timestamp>", "</timestamX>")
	edit("</interactionPAssertion>", "</interactionPAssertioX>")
	edit("<view>sender</view>", "<abcdefghijklmnop>x</abcdefghijklmnoX><view>sender</view>")
	edit("<view>sender</view>", "<abcdefghijklmnopq>x</abcdefghijklmnopq><view>sender</view>")
	docs = append(docs, exitRecords[0][:len(exitRecords[0])-3], exitRecords[0][:len(exitRecords[0])-len("</interactionPAssertion></record>")-2])
	// Ids, views, kinds, numbers and timestamps that start in their
	// fixed form and leave it.
	upper := "urn:pasoa:0123456789ABCDEF0123456789ABCDEF"
	field("id", exitID, upper, "urn:pasoa:&#x30;123456789abcdef0123456789abcdef", exitID[len("urn:pasoa:"):], exitID[:41], exitID+"0",
		exitID+" ", " "+exitID, "urn:pasoa:0123456789abcdeg0123456789abcdef", "urn:pasoa:0123456789abcdef0123456789abcde\xff", "urn:pasoa:")
	edit("<id>"+exitID+"</id><sender>", "<id>"+exitID+"</id ><sender>")
	field("view", "sender", "receiver", "sender ", "&#x73;ender", "senders", "send")
	field("view", "receiver", "sender")
	field("kind", "interaction", "actorState", "interactions", " interaction", "interactio&#x6E;")
	field("seq", "1", "007", "0", "18446744073709551615", "18446744073709551616", "99999999999999999999", " 5 ", "+5", "-1", "5&#x30;", "5.0")
	field("timestamp", "2005-06-01T12:00:00.5Z", "2005-06-01T12:00:00Z", "2005-06-01T12:00:00.123456789Z", "2005-06-01T12:00:00.1234567890Z",
		"2005-06-01T12:00:00+01:00", "2005-06-01T12:00:00.5-07:30", "2005-02-29T00:00:00Z", "2004-02-29T00:00:00Z", "2005-04-31T00:00:00Z",
		"0000-01-01T00:00:00Z", "9999-12-31T23:59:59.999999999Z", "2005-06-01T24:00:00Z", "2005-06-01T12:60:00Z", "2005-06-01T12:00:60Z",
		"2005-06-01t12:00:00Z", "2005-06-01T12:00:00.Z", "2005-06-01T12:00:00Z ", "2005-06-01T12:00:00,5Z", "2005-6-01T12:00:00Z",
		"2005-06-01T12:00:00.5&#x5A;", "2005-06-01T12:00:00")
	return docs
}

// selfClose writes the first element named tag in doc as <tag/>.
func selfClose(doc, tag string) string {
	start := strings.Index(doc, "<"+tag+">")
	end := strings.Index(doc[start:], "</"+tag+">") + start + len("</"+tag+">")
	return doc[:start] + "<" + tag + "/>" + doc[end:]
}

// slotCollision returns two short strings that share a slot of
// RecordDecoder's intern table.
func slotCollision() (string, string) {
	seen := map[uint64]string{}
	for i := 0; ; i++ {
		s := fmt.Sprintf("svc:c%d", i)
		if prev, ok := seen[slot([]byte(s))]; ok {
			return prev, s
		}
		seen[slot([]byte(s))] = s
	}
}

// FuzzRecordXML holds RecordDecoder to xml.Unmarshal on arbitrary
// bytes read as a <record> document (checkRecordXML). Fuzzing the
// envelope (soap's FuzzDecodeEnvelope) spends most mutations on
// framing; this one spends them on the record's own fields.
func FuzzRecordXML(f *testing.F) {
	for _, doc := range fastPathExits() {
		f.Add([]byte(doc))
	}
	for _, r := range fuzzSeedRecords() {
		doc, err := r.AppendXML(nil, "record")
		if err != nil {
			f.Fatal(err)
		}
		f.Add(doc)
	}
	f.Fuzz(func(t *testing.T, doc []byte) {
		checkRecordXML(t, doc)
	})
}

// A slab's lists sit side by side without overlapping: a closed list
// appended to reallocates, and a list that outgrows its chunk moves.
func TestSlabListsStayApart(t *testing.T) {
	d := (*wireChunks)(xmlwire.NewDecoder(make([]byte, 1000)))
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

// recordsDoc is a <records> document of n records, every third an
// actor-state record.
func recordsDoc(t *testing.T, n int) []byte {
	t.Helper()
	doc := []byte("<records>")
	for i := range n {
		r := NewInteractionRecord(sampleInteractionPA())
		if i%3 == 2 {
			r = NewActorStateRecord(sampleActorStatePA())
		}
		var err error
		if doc, err = r.AppendXML(doc, "record"); err != nil {
			t.Fatal(err)
		}
	}
	return append(doc, "</records>"...)
}

// decodeReused reads doc's records as the server reads a request's:
// through d, readied by Reuse, with the RecordDecoder kept with it.
func decodeReused(d *xmlwire.Decoder, doc []byte, out *[]Record) error {
	d.Reuse(doc)
	if err := d.Root(); err != nil {
		return err
	}
	var local RecordDecoder
	rd := RecordDecoderOf(d, &local)
	*out = nil
	return d.Children(func([]byte) error { return rd.Append(d, out) })
}

// A decoder Reuse readied reads each document into the memory of the
// one before: what it reads is what a fresh decoder reads, a document
// no larger than the last takes no allocation, and a slab chunk over
// reuse.MaxBytes is left to the collector. A decoder Reuse did not ready gets
// a local RecordDecoder, so what it decodes is its own.
func TestRecordDecoderReuse(t *testing.T) {
	var local RecordDecoder
	if RecordDecoderOf(xmlwire.NewDecoder(nil), &local) != &local {
		t.Fatal("a fresh decoder shares its RecordDecoder")
	}
	d := new(xmlwire.Decoder)
	var got, last []Record
	read := func(n int) {
		t.Helper()
		doc := recordsDoc(t, n)
		if err := decodeReused(d, doc, &got); err != nil {
			t.Fatal(err)
		}
		if want := decodeRecords(t, doc); !reflect.DeepEqual(got, want) {
			t.Fatalf("%d records read into reused memory differ from a fresh decoder's", n)
		}
	}
	for _, n := range []int{3, 3, 1, 40, 40, 2} {
		read(n)
		if n <= len(last) && (&got[0] != &last[0] || got[0].Interaction != last[0].Interaction) {
			t.Errorf("%d records after %d: the record list or the slab was not reused", n, len(last))
		}
		last = got
	}
	doc := recordsDoc(t, 40)
	if allocs := testing.AllocsPerRun(10, func() {
		if err := decodeReused(d, doc, &got); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("a 40-record document read again into reused memory made %.0f allocations, want 0", allocs)
	}

	// Two records in three are interactions: these take more than
	// reuse.MaxBytes of them, and their record list less.
	big := int(reuse.MaxBytes/unsafe.Sizeof(InteractionPAssertion{}))*3/2 + 300
	read(big)
	last = got
	read(2)
	if &got[0] != &last[0] {
		t.Error("the record list of a large document was not reused")
	}
	if size := cap(RecordDecoderOf(d, nil).interactions.chunk); size > 2 {
		t.Errorf("after %d records then 2, the interaction slab holds a chunk of %d", big, size)
	}
}
