package xmlwire

import (
	"bytes"
	"encoding/xml"
	"errors"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

// hostile are strings that exercise every branch of the escaper and of
// the text checker: markup characters, whitespace that must survive as
// references, control bytes, invalid UTF-8, non-characters, "]]>".
var hostile = []string{
	"", "plain", `a<b>&"'c`, "tab\there", "cr\rlf\ncrlf\r\n", "\x00\x01\x1f\x7f",
	"\xff\xfe invalid \xc3", "é世界🙂", "\uFFFD", "\uFFFE\uFFFF", "]]>", "  padded  ",
	"&amp;&#65;", "\xed\xa0\x80 surrogate", strings.Repeat("long<>", 200),
}

func TestAppendEscapedMatchesEncodingXML(t *testing.T) {
	check := func(s string) bool {
		var want bytes.Buffer
		xml.EscapeText(&want, []byte(s))
		got := AppendEscaped([]byte("prefix"), s)
		return string(got) == "prefix"+want.String()
	}
	for _, s := range hostile {
		if !check(s) {
			t.Errorf("AppendEscaped(%q) differs from xml.EscapeText", s)
		}
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	// quick's strings are valid UTF-8; raw bytes are not.
	if err := quick.Check(func(b []byte) bool { return check(string(b)) }, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// doc is a small schema with one field of every scalar kind the
// decoder reads, decoded below by hand and by encoding/xml.
type doc struct {
	XMLName xml.Name  `xml:"doc"`
	S       string    `xml:"s"`
	N       int       `xml:"n"`
	U       uint64    `xml:"u"`
	B       bool      `xml:"b"`
	T       time.Time `xml:"t"`
	W       onOff     `xml:"w"`
	Mid     string    `xml:"middling9"`
	Long    string    `xml:"a-long.element_name"`
	Items   []item    `xml:"item"`
}

// onOff is a two-word enumeration, read with Word.
type onOff bool

func (o *onOff) UnmarshalText(text []byte) error {
	switch string(text) {
	case "on":
		*o = true
	case "off":
		*o = false
	default:
		return errors.New("neither on nor off")
	}
	return nil
}

type item struct {
	Name string `xml:"name"`
}

func (v *doc) decode(d *Decoder) error {
	space, err := d.StartName("doc")
	if err != nil {
		return err
	}
	v.XMLName = xml.Name{Space: space, Local: "doc"}
	return d.Children(func(name []byte) error {
		switch string(name) {
		case "s":
			return d.String(&v.S)
		case "n":
			return d.Int(&v.N)
		case "u":
			return d.Uint64(&v.U)
		case "b":
			return d.Bool(&v.B)
		case "t":
			return d.Time(&v.T)
		case "w":
			switch {
			case d.Word("on"):
				v.W = true
			case d.Word("off"):
				v.W = false
			default:
				return d.Unmarshal(&v.W)
			}
			return nil
		case "middling9":
			return d.String(&v.Mid)
		case "a-long.element_name":
			return d.String(&v.Long)
		case "item":
			v.Items = append(v.Items, item{})
			return v.Items[len(v.Items)-1].decode(d)
		}
		return d.Skip()
	})
}

func (v *item) decode(d *Decoder) error {
	return d.Children(func(name []byte) error {
		switch string(name) {
		case "name":
			return d.String(&v.Name)
		}
		return d.Skip()
	})
}

func decodeDoc(data []byte) (doc, error) {
	var v doc
	d := NewDecoder(data)
	err := d.Root()
	if err == nil {
		err = v.decode(d)
	}
	return v, err
}

// TestDecoderMatchesEncodingXML holds the decoder to encoding/xml on
// documents that use what it tolerates, what both reject, and — marked
// unsupported — the short list it rejects on purpose.
func TestDecoderMatchesEncodingXML(t *testing.T) {
	cases := []struct {
		name, in    string
		unsupported bool
	}{
		{name: "canonical", in: `<doc><s>x</s><n>-5</n><u>7</u><b>true</b><t>2005-07-24T10:00:00.5+01:00</t><item><name>a</name></item><item><name>b</name></item></doc>`},
		{name: "empty document", in: ``},
		{name: "text only", in: `not xml`},
		{name: "empty root", in: `<doc/>`},
		{name: "empty root pair", in: `<doc></doc>`},
		{name: "wrong root", in: `<dok><s>x</s></dok>`},
		{name: "prolog", in: `<?xml version="1.0" encoding="UTF-8"?>` + "\n" + `<doc><s>x</s></doc>`},
		{name: "prolog utf-8 lower", in: `<?xml version='1.0' encoding='utf-8' standalone="yes"?><doc><s>x</s></doc>`},
		{name: "prolog version 1.1", in: `<?xml version="1.1"?><doc><s>x</s></doc>`},
		{name: "prolog latin1", in: `<?xml version="1.0" encoding="ISO-8859-1"?><doc><s>x</s></doc>`},
		{name: "prolog no attrs", in: `<?xml?><doc><s>x</s></doc>`},
		{name: "pi without target", in: `<? x?><doc/>`},
		{name: "pi unterminated", in: `<?pi <doc/>`},
		{name: "leading text and comment", in: "junk <!-- c --> more\n<doc><s>x</s></doc>"},
		{name: "trailing garbage", in: `<doc><s>x</s></doc><<<&`},
		{name: "top-level end tag", in: `</doc><doc/>`},
		{name: "reordered and repeated", in: `<doc><item><name>a</name></item><n>1</n><s>first</s><item/><s>last</s><n>2</n></doc>`},
		{name: "unknown elements", in: `<doc><x><y a="1">deep<z/></y>text</x><s>x</s><unknown/></doc>`},
		{name: "self-closing scalars", in: `<doc><s/><n/><u/><b/><item/></doc>`},
		{name: "self-closing time", in: `<doc><t/></doc>`},
		{name: "attributes", in: `<doc a="1" b='2'><s id="q" x = "a&amp;b&#10;c">x</s><item  k="v" /></doc>`},
		{name: "attribute with gt and quotes", in: `<doc><s a="]]>" b='"'>x</s></doc>`},
		{name: "attribute missing value", in: `<doc><s a>x</s></doc>`},
		{name: "attribute unquoted", in: `<doc><s a=1>x</s></doc>`},
		{name: "attribute with lt", in: `<doc><s a="<">x</s></doc>`},
		{name: "attribute unterminated", in: `<doc><s a="x>y</s></doc>`},
		{name: "attribute bad entity", in: `<doc><s a="&nope;">x</s></doc>`},
		{name: "attribute bad char", in: "<doc><s a=\"\x01\">x</s></doc>"},
		{name: "namespaces", in: `<p:doc xmlns:p="urn:p" xmlns="urn:d"><p:s>x</p:s><n xmlns="">3</n><q:item><name>a</name></q:item></p:doc>`},
		{name: "default namespace", in: `<doc xmlns="urn:d"><s>x</s></doc>`},
		{name: "undeclared prefix", in: `<q:doc><q:s>x</q:s></q:doc>`},
		{name: "xml prefix", in: `<xml:doc><s>x</s></xml:doc>`},
		{name: "xmlns prefix", in: `<xmlns:doc><s>x</s></xmlns:doc>`},
		{name: "namespace redeclared in attr order", in: `<p:doc xmlns:p="one" xmlns:p="two"><s>x</s></p:doc>`},
		{name: "namespace with entity", in: `<p:doc xmlns:p="a&amp;b&#xD;&#10;"><s>x</s></p:doc>`},
		{name: "prefix mismatch on close", in: `<p:doc xmlns:p="u" xmlns:q="u"><s>x</s></q:doc>`},
		{name: "two colons", in: `<a:b:doc/>`},
		{name: "leading colon", in: `<doc><:s>x</:s></doc>`},
		{name: "trailing colon", in: `<doc><s:>x</s:></doc>`},
		{name: "name starting with digit", in: `<doc><1a/></doc>`},
		{name: "name starting with dash", in: `<doc><-a/></doc>`},
		{name: "dotted names", in: `<doc><a.b-c_d>1</a.b-c_d><s>x</s></doc>`},
		{name: "non-ascii name", in: `<doc><été>1</été><s>x</s></doc>`},
		{name: "invalid utf-8 name", in: "<doc><a\xff>1</a\xff></doc>"},
		{name: "space before name", in: `<doc>< s>x</s></doc>`},
		{name: "space in end tag", in: "<doc><s>x</s \n></doc\t>"},
		{name: "junk in end tag", in: `<doc><s>x</s x></doc>`},
		{name: "mismatched end", in: `<doc><s>x</n></doc>`},
		{name: "unclosed", in: `<doc><s>x</s>`},
		{name: "unclosed scalar", in: `<doc><s>x`},
		{name: "truncated tag", in: `<doc><s`},
		{name: "lone lt", in: `<doc><`},
		{name: "lone lt after text", in: `<doc><s>x<`},
		{name: "bad self-close", in: `<doc><s/ ></doc>`},
		{name: "entities", in: `<doc><s>&lt;&gt;&amp;&apos;&quot;&#65;&#x42;&#x63;</s></doc>`},
		{name: "whitespace references", in: `<doc><s>&#x9;&#xA;&#xD;&#13;&#10;</s></doc>`},
		{name: "cr normalisation", in: "<doc><s>a\rb\r\nc\r\r\nd&#xD;\ne\r&#xA;</s></doc>"},
		{name: "entity unknown", in: `<doc><s>&nbsp;</s></doc>`},
		{name: "entity unterminated", in: `<doc><s>&amp</s></doc>`},
		{name: "entity bare amp", in: `<doc><s>a & b</s></doc>`},
		{name: "entity empty", in: `<doc><s>&;</s></doc>`},
		{name: "charref empty", in: `<doc><s>&#;</s></doc>`},
		{name: "charref hex empty", in: `<doc><s>&#x;</s></doc>`},
		{name: "charref upper X", in: `<doc><s>&#X41;</s></doc>`},
		{name: "charref hex digits in decimal", in: `<doc><s>&#4a;</s></doc>`},
		{name: "charref zero", in: `<doc><s>&#0;</s></doc>`},
		{name: "charref control", in: `<doc><s>&#x1F;</s></doc>`},
		{name: "charref nonchar", in: `<doc><s>&#xFFFE;</s></doc>`},
		{name: "charref surrogate", in: `<doc><s>&#xD800;</s></doc>`},
		{name: "charref max", in: `<doc><s>&#x10FFFF;</s></doc>`},
		{name: "charref beyond max", in: `<doc><s>&#x110000;</s></doc>`},
		{name: "charref overflow", in: `<doc><s>&#99999999999999999999999;</s></doc>`},
		{name: "charref leading zeros", in: `<doc><s>&#0000000000000000000065;</s></doc>`},
		{name: "charref unterminated", in: `<doc><s>&#65</s></doc>`},
		{name: "control byte", in: "<doc><s>a\x01b</s></doc>"},
		{name: "del byte", in: "<doc><s>a\x7fb</s></doc>"},
		{name: "invalid utf-8", in: "<doc><s>a\xffb</s></doc>"},
		{name: "truncated utf-8", in: "<doc><s>a\xe4\xb8</s></doc>"},
		{name: "encoded surrogate", in: "<doc><s>\xed\xa0\x80</s></doc>"},
		{name: "nonchar", in: "<doc><s>\uFFFE</s></doc>"},
		{name: "multibyte", in: "<doc><s>é世界🙂\uFFFD</s></doc>"},
		{name: "cdata end in text", in: `<doc><s>a]]>b</s></doc>`},
		{name: "cdata end split by entity", in: `<doc><s>a]]&gt;b ]&#93;> ]] ></s></doc>`},
		{name: "gt in text", in: `<doc><s>a>b]>c</s></doc>`},
		{name: "bad text between elements", in: "<doc>\x02<s>x</s></doc>"},
		{name: "bad entity between elements", in: `<doc>&nope;<s>x</s></doc>`},
		{name: "text between elements", in: "<doc>\n  <s>x</s> stray &amp; text \r\n <n>1</n>\n</doc>"},
		{name: "comments and pis between elements", in: `<doc><!-- a --><s>x</s><?pi data?><!----><n>1</n><!-- - --></doc>`},
		{name: "comment with double dash", in: `<doc><!-- a -- b --><s>x</s></doc>`},
		{name: "comment ending in three dashes", in: `<doc><!-- a ---><s>x</s></doc>`},
		{name: "comment unterminated", in: `<doc><!-- a <s>x</s></doc>`},
		{name: "comment with junk bytes", in: "<doc><!-- \x01\xff --><s>x</s></doc>"},
		{name: "int forms", in: `<doc><n> +12 </n><u>&#x31;2</u><b> T </b></doc>`},
		{name: "int garbage", in: `<doc><n>12x</n></doc>`},
		{name: "int overflow", in: `<doc><n>99999999999999999999</n></doc>`},
		{name: "uint negative", in: `<doc><u>-1</u></doc>`},
		{name: "bool garbage", in: `<doc><b>yes</b></doc>`},
		{name: "bool forms", in: `<doc><b>1</b></doc>`},
		{name: "time garbage", in: `<doc><t>yesterday</t></doc>`},
		{name: "time utc", in: `<doc><t>2005-07-24T10:00:00Z</t></doc>`},
		// Scalars read as they are parsed, and the forms that leave that
		// path for Text.
		{name: "time fraction", in: `<doc><t>2005-07-24T10:00:00.000000001Z</t></doc>`},
		{name: "time fraction ten digits", in: `<doc><t>2005-07-24T10:00:00.1234567891Z</t></doc>`},
		{name: "time empty fraction", in: `<doc><t>2005-07-24T10:00:00.Z</t></doc>`},
		{name: "time leap day", in: `<doc><t>2004-02-29T23:59:59.5Z</t></doc>`},
		{name: "time no leap day", in: `<doc><t>1900-02-29T00:00:00Z</t></doc>`},
		{name: "time day 31", in: `<doc><t>2005-07-31T00:00:00Z</t></doc>`},
		{name: "time day 31 of 30", in: `<doc><t>2005-06-31T00:00:00Z</t></doc>`},
		{name: "time day 0", in: `<doc><t>2005-06-00T00:00:00Z</t></doc>`},
		{name: "time month 13", in: `<doc><t>2005-13-01T00:00:00Z</t></doc>`},
		{name: "time hour 24", in: `<doc><t>2005-07-24T24:00:00Z</t></doc>`},
		{name: "time second 60", in: `<doc><t>2005-07-24T10:00:60Z</t></doc>`},
		{name: "time year 0", in: `<doc><t>0000-01-01T00:00:00Z</t></doc>`},
		{name: "time lower-case t", in: `<doc><t>2005-07-24t10:00:00Z</t></doc>`},
		{name: "time digit out of place", in: `<doc><t>2005-07-2xT10:00:00Z</t></doc>`},
		{name: "time trailing space", in: `<doc><t>2005-07-24T10:00:00Z </t></doc>`},
		{name: "time referenced", in: `<doc><t>2005-07-24T10:00:00&#x5A;</t></doc>`},
		{name: "time end tag with space", in: `<doc><t>2005-07-24T10:00:00Z</t ></doc>`},
		{name: "time unterminated", in: `<doc><t>2005-07-24T10:00:00Z`},
		{name: "int digits", in: `<doc><n>007</n><u>18446744073709551615</u></doc>`},
		{name: "int nineteen digits", in: `<doc><n>9223372036854775807</n><u>9999999999999999999</u></doc>`},
		{name: "int beyond max", in: `<doc><n>9223372036854775808</n></doc>`},
		{name: "uint overflow", in: `<doc><u>18446744073709551616</u></doc>`},
		{name: "int negative", in: `<doc><n>-7</n></doc>`},
		{name: "int then reference", in: `<doc><n>1&#x32;</n></doc>`},
		{name: "int unterminated", in: `<doc><n>12`},
		{name: "words", in: `<doc><w>on</w><w>off</w></doc>`},
		{name: "word referenced", in: `<doc><w>&#x6F;n</w></doc>`},
		{name: "word prefix", in: `<doc><w>o</w></doc>`},
		{name: "word longer", in: `<doc><w>onward</w></doc>`},
		{name: "word with space", in: `<doc><w>on </w></doc>`},
		{name: "word self-closed", in: `<doc><w/></doc>`},
		{name: "word end tag with space", in: `<doc><w>off</w ></doc>`},
		{name: "word unterminated", in: `<doc><w>on`},
		// Text runs that end on an eight-byte word boundary and a byte
		// either side of it; end tags compared as one word, two words
		// and more, matching and differing in their last byte.
		{name: "runs at word boundaries", in: `<doc><s>abcdefg</s><middling9>abcdefgh</middling9><a-long.element_name>abcdefghi</a-long.element_name><item><name>abcdefghabcdefgh</name></item><item><name>abcdefghabcdefg&amp;</name></item></doc>`},
		{name: "special byte after a word", in: "<doc><s>abcdefgh\r\n</s><middling9>abcdefghé</middling9><a-long.element_name>abcdefgh\tb\nc</a-long.element_name></doc>"},
		{name: "control after a word", in: "<doc><s>abcdefgh\x01</s></doc>"},
		{name: "gt after a word", in: "<doc><s>abcdefgh]]></s></doc>"},
		{name: "two-word name differs", in: `<doc><middling9>x</middling8></doc>`},
		{name: "long name differs", in: `<doc><a-long.element_name>x</a-long.element_namf></doc>`},
		{name: "long name at the end", in: `<doc><a-long.element_name>x</a-long.element_name>`},
		{name: "deep unknown nesting", in: `<doc>` + strings.Repeat(`<a>`, 500) + strings.Repeat(`</a>`, 500) + `<s>x</s></doc>`},

		{name: "doctype", in: `<!DOCTYPE doc><doc><s>x</s></doc>`, unsupported: true},
		{name: "doctype with subset", in: `<!DOCTYPE doc [<!ENTITY e "v">]><doc><s>x</s></doc>`, unsupported: true},
		{name: "directive inside", in: `<doc><!ELEMENT x><s>x</s></doc>`, unsupported: true},
		{name: "cdata in scalar", in: `<doc><s><![CDATA[a<b]]></s></doc>`, unsupported: true},
		{name: "cdata between elements", in: `<doc><![CDATA[ ]]><s>x</s></doc>`, unsupported: true},
		{name: "cdata before root", in: `<![CDATA[x]]><doc/>`, unsupported: true},
		{name: "comment in scalar", in: `<doc><s>a<!-- c -->b</s></doc>`, unsupported: true},
		{name: "comment in int", in: `<doc><n>1<!-- c -->2</n></doc>`, unsupported: true},
		{name: "pi in scalar", in: `<doc><s>a<?pi?>b</s></doc>`, unsupported: true},
		{name: "element in scalar", in: `<doc><s>a<x>skipped</x>b</s></doc>`, unsupported: true},
		{name: "element in time", in: `<doc><t>2005-07-24T10:00:00Z<x/></t></doc>`, unsupported: true},
		{name: "nesting beyond MaxDepth", in: `<doc>` + strings.Repeat(`<a>`, MaxDepth) + strings.Repeat(`</a>`, MaxDepth) + `</doc>`, unsupported: true},
	}
	for _, c := range cases {
		var want doc
		wantErr := xml.Unmarshal([]byte(c.in), &want)
		got, gotErr := decodeDoc([]byte(c.in))
		switch {
		case c.unsupported:
			if wantErr != nil {
				t.Errorf("%s: encoding/xml rejects it too (%v): not a divergence, move it", c.name, wantErr)
			}
			if !errors.Is(gotErr, ErrUnsupported) {
				t.Errorf("%s: err = %v, want ErrUnsupported", c.name, gotErr)
			}
		case (wantErr == nil) != (gotErr == nil):
			t.Errorf("%s: encoding/xml err = %v, decoder err = %v", c.name, wantErr, gotErr)
		case gotErr != nil:
			if errors.Is(gotErr, ErrUnsupported) {
				t.Errorf("%s: malformed input reported as unsupported: %v", c.name, gotErr)
			}
		case !reflect.DeepEqual(got, want):
			t.Errorf("%s:\n got %+v\nwant %+v", c.name, got, want)
		}
	}
}

func TestInnerXML(t *testing.T) {
	const inner = ` <a x="1">t<b/></a><!-- c -->tail `
	d := NewDecoder([]byte(`<env><body>` + inner + `</body><after>z</after></env>`))
	if err := d.Root(); err != nil {
		t.Fatal(err)
	}
	name, ok, err := d.Next()
	if err != nil || !ok || string(name) != "body" {
		t.Fatalf("Next = %q %v %v", name, ok, err)
	}
	got, err := d.InnerXML()
	if err != nil || string(got) != inner {
		t.Fatalf("InnerXML = %q, %v", got, err)
	}
	// The decoder is left right after </body>.
	var after string
	if name, ok, err = d.Next(); err != nil || !ok || string(name) != "after" {
		t.Fatalf("Next = %q %v %v", name, ok, err)
	}
	if err := d.String(&after); err != nil || after != "z" {
		t.Fatalf("after = %q, %v", after, err)
	}
	if _, ok, err = d.Next(); ok || err != nil {
		t.Fatalf("end of env: ok=%v err=%v", ok, err)
	}
}

// Text must not hand out bytes that a later call rewrites under a value
// already converted: the scratch buffer is reused, strings are copies.
func TestTextScratchReuse(t *testing.T) {
	v, err := decodeDoc([]byte(`<doc><item><name>a&amp;b</name></item><item><name>c&lt;d&gt;e</name></item><s>&quot;</s></doc>`))
	if err != nil {
		t.Fatal(err)
	}
	if v.Items[0].Name != "a&b" || v.Items[1].Name != "c<d>e" || v.S != `"` {
		t.Errorf("decoded %+v", v)
	}
}

// Inside the element Fragment is called on, names resolve as they do in
// a document of that element's content alone, which is how encoding/xml
// reads those bytes; after its end tag the outer declarations are in
// scope again. Offset is where the decoder stands.
func TestFragment(t *testing.T) {
	const open = `<env xmlns="urn:env" xmlns:p="urn:p"><body xmlns:q="urn:q">`
	const content = `<p:a/><q:b xmlns:q="urn:inner"/><c/><q:d/>`
	d := NewDecoder([]byte(open + content + `</body><p:after/></env>`))
	if err := d.Root(); err != nil {
		t.Fatal(err)
	}
	if name, ok, err := d.Next(); err != nil || !ok || string(name) != "body" {
		t.Fatalf("Next = %q %v %v", name, ok, err)
	}
	if d.Offset() != len(open) {
		t.Fatalf("Offset = %d, want %d", d.Offset(), len(open))
	}
	d.Fragment()
	var got []string
	for {
		name, ok, err := d.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		space, err := d.StartName(string(name))
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, space)
		if err := d.Skip(); err != nil {
			t.Fatal(err)
		}
	}
	type fragment struct {
		Names []xml.Name `xml:",any"`
	}
	var oracle fragment
	if err := xml.Unmarshal([]byte(`<f>`+content+`</f>`), &oracle); err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, n := range oracle.Names {
		want = append(want, n.Space)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("namespaces inside the fragment = %q, encoding/xml reads %q", got, want)
	}
	if name, ok, err := d.Next(); err != nil || !ok || string(name) != "after" {
		t.Fatalf("Next = %q %v %v", name, ok, err)
	}
	if space, _ := d.StartName("after"); space != "urn:p" {
		t.Errorf("after the fragment, <p:after> is in %q, want urn:p", space)
	}
}
