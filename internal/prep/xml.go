package prep

import (
	"encoding/xml"

	"preserv/internal/core"
	"preserv/internal/xmlwire"
)

// Wire codec for the record-carrying messages — Record and the three
// query actions — which are every recording and query request's largest
// cost when left to encoding/xml's reflection. All seven — the three
// requests and the four replies — have both halves here, an AppendXML
// and a DecodeXML, so neither the client nor the store reflects over a
// request or over its reply; only the cold administrative messages
// (delete, compact, sessions, count, stats) go through encoding/xml, in
// both directions. internal/soap finds either half by interface. The
// struct tags stay the specification — output is byte-identical to
// xml.Marshal's, decoded values equal xml.Unmarshal's, and the
// differential tests hold both to it — so a peer on encoding/xml, an
// older build of this repository included, interoperates.
//
// A message is named by its XMLName: AppendXML writes the whole
// element, and DecodeXML, called once the start tag has been read,
// checks the name, reads through the end tag and sets only the fields
// whose elements appear.

// appendRecords appends each record as a <record> element.
func appendRecords(dst []byte, records []core.Record) ([]byte, error) {
	var err error
	for i := range records {
		if dst, err = records[i].AppendXML(dst, "record"); err != nil {
			return nil, err
		}
	}
	return dst, nil
}

// appendNonEmpty appends <tag>s</tag> as an omitempty string field is
// written: not at all when s is empty.
func appendNonEmpty(dst []byte, tag, s string) []byte {
	if s == "" {
		return dst
	}
	return xmlwire.AppendString(dst, tag, s)
}

// startName checks the element d is in against a message's XMLName tag
// and returns the XMLName to store.
func startName(d *xmlwire.Decoder, want string) (xml.Name, error) {
	space, err := d.StartName(want)
	return xml.Name{Space: space, Local: want}, err
}

// AppendXML appends the message.
func (r *RecordRequest) AppendXML(dst []byte) ([]byte, error) {
	dst = append(dst, "<RecordRequest>"...)
	dst = xmlwire.AppendString(dst, "asserter", string(r.Asserter))
	dst, err := appendRecords(dst, r.Records)
	if err != nil {
		return nil, err
	}
	return append(dst, "</RecordRequest>"...), nil
}

// DecodeXML reads the message from d.
//
// provlint:typed-faults
func (r *RecordRequest) DecodeXML(d *xmlwire.Decoder) error {
	var err error
	if r.XMLName, err = startName(d, "RecordRequest"); err != nil {
		return err
	}
	var local core.RecordDecoder
	rd := core.RecordDecoderOf(d, &local)
	return d.Children(func(name []byte) error {
		switch string(name) {
		case "asserter":
			return d.String((*string)(&r.Asserter))
		case "record":
			return rd.Append(d, &r.Records)
		}
		return d.Skip()
	})
}

// AppendXML appends the message.
func (r *RecordResponse) AppendXML(dst []byte) ([]byte, error) {
	dst = append(dst, "<RecordResponse>"...)
	dst = xmlwire.AppendInt(dst, "accepted", int64(r.Accepted))
	for i := range r.Rejects {
		dst = append(dst, "<reject>"...)
		dst = xmlwire.AppendInt(dst, "index", int64(r.Rejects[i].Index))
		dst = xmlwire.AppendString(dst, "reason", r.Rejects[i].Reason)
		dst = append(dst, "</reject>"...)
	}
	return append(dst, "</RecordResponse>"...), nil
}

// DecodeXML reads the message from d.
//
// provlint:typed-faults
func (r *RecordResponse) DecodeXML(d *xmlwire.Decoder) error {
	var err error
	if r.XMLName, err = startName(d, "RecordResponse"); err != nil {
		return err
	}
	return d.Children(func(name []byte) error {
		switch string(name) {
		case "accepted":
			return d.Int(&r.Accepted)
		case "reject":
			r.Rejects = append(r.Rejects, Reject{})
			return r.Rejects[len(r.Rejects)-1].decodeXML(d)
		}
		return d.Skip()
	})
}

// decodeXML reads the <reject> element d is in.
func (r *Reject) decodeXML(d *xmlwire.Decoder) error {
	return d.Children(func(name []byte) error {
		switch string(name) {
		case "index":
			return d.Int(&r.Index)
		case "reason":
			return d.String(&r.Reason)
		}
		return d.Skip()
	})
}

// AppendXML appends the query. omitempty drops an empty string and a
// zero limit; it never fires on a struct, so a nil id is an empty
// element and a zero time is written out.
func (q *Query) AppendXML(dst []byte) ([]byte, error) {
	dst = append(dst, "<Query>"...)
	dst = q.InteractionID.AppendXML(dst, "interactionId")
	dst = q.SessionID.AppendXML(dst, "sessionId")
	dst = q.GroupID.AppendXML(dst, "groupId")
	dst = appendNonEmpty(dst, "kind", q.Kind)
	dst = appendNonEmpty(dst, "asserter", string(q.Asserter))
	dst = appendNonEmpty(dst, "service", string(q.Service))
	dst = appendNonEmpty(dst, "stateKind", q.StateKind)
	dst = q.DataID.AppendXML(dst, "dataId")
	dst, err := xmlwire.AppendTime(dst, "since", q.Since)
	if err != nil {
		return nil, err
	}
	if dst, err = xmlwire.AppendTime(dst, "until", q.Until); err != nil {
		return nil, err
	}
	if q.Limit != 0 {
		dst = xmlwire.AppendInt(dst, "limit", int64(q.Limit))
	}
	return append(dst, "</Query>"...), nil
}

// DecodeXML reads the query from d.
//
// provlint:typed-faults
func (q *Query) DecodeXML(d *xmlwire.Decoder) error {
	var err error
	if q.XMLName, err = startName(d, "Query"); err != nil {
		return err
	}
	return d.Children(func(name []byte) error {
		switch string(name) {
		case "interactionId":
			return q.InteractionID.DecodeXML(d)
		case "sessionId":
			return q.SessionID.DecodeXML(d)
		case "groupId":
			return q.GroupID.DecodeXML(d)
		case "kind":
			return d.String(&q.Kind)
		case "asserter":
			return d.String((*string)(&q.Asserter))
		case "service":
			return d.String((*string)(&q.Service))
		case "stateKind":
			return d.String(&q.StateKind)
		case "dataId":
			return q.DataID.DecodeXML(d)
		case "since":
			return d.Time(&q.Since)
		case "until":
			return d.Time(&q.Until)
		case "limit":
			return d.Int(&q.Limit)
		}
		return d.Skip()
	})
}

// AppendXML appends the message.
func (r *QueryResponse) AppendXML(dst []byte) ([]byte, error) {
	dst = append(dst, "<QueryResponse>"...)
	dst = xmlwire.AppendInt(dst, "total", int64(r.Total))
	dst, err := appendRecords(dst, r.Records)
	if err != nil {
		return nil, err
	}
	return append(dst, "</QueryResponse>"...), nil
}

// DecodeXML reads the message from d.
//
// provlint:typed-faults
func (r *QueryResponse) DecodeXML(d *xmlwire.Decoder) error {
	var err error
	if r.XMLName, err = startName(d, "QueryResponse"); err != nil {
		return err
	}
	var local core.RecordDecoder
	rd := core.RecordDecoderOf(d, &local)
	return d.Children(func(name []byte) error {
		switch string(name) {
		case "total":
			return d.Int(&r.Total)
		case "record":
			return rd.Append(d, &r.Records)
		}
		return d.Skip()
	})
}

// appendXML appends the plan as a <plan> element.
func (p *QueryPlan) appendXML(dst []byte) []byte {
	dst = append(dst, "<plan>"...)
	dst = xmlwire.AppendString(dst, "strategy", p.Strategy)
	// omitempty on a slice field applies to each element: an empty
	// dimension name or a zero count is left out.
	for _, dim := range p.Dims {
		dst = appendNonEmpty(dst, "dim", dim)
	}
	for _, n := range p.DimCounts {
		if n != 0 {
			dst = xmlwire.AppendInt(dst, "dimCount", int64(n))
		}
	}
	dst = xmlwire.AppendInt(dst, "estCandidates", int64(p.EstCandidates))
	dst = xmlwire.AppendInt(dst, "postings", int64(p.Postings))
	dst = xmlwire.AppendInt(dst, "candidates", int64(p.Candidates))
	dst = xmlwire.AppendBool(dst, "cached", p.Cached)
	return append(dst, "</plan>"...)
}

// decodeXML reads the <plan> element d is in. Every <dim> and <dimCount>
// appends an element, an empty one included: omitempty is the encoder's
// rule, not the decoder's.
//
// provlint:typed-faults
func (p *QueryPlan) decodeXML(d *xmlwire.Decoder) error {
	return d.Children(func(name []byte) error {
		switch string(name) {
		case "strategy":
			return d.String(&p.Strategy)
		case "dim":
			p.Dims = append(p.Dims, "")
			return d.String(&p.Dims[len(p.Dims)-1])
		case "dimCount":
			p.DimCounts = append(p.DimCounts, 0)
			return d.Int(&p.DimCounts[len(p.DimCounts)-1])
		case "estCandidates":
			return d.Int(&p.EstCandidates)
		case "postings":
			return d.Int(&p.Postings)
		case "candidates":
			return d.Int(&p.Candidates)
		case "cached":
			return d.Bool(&p.Cached)
		}
		return d.Skip()
	})
}

// AppendXML appends the message.
func (r *PlannedQueryResponse) AppendXML(dst []byte) ([]byte, error) {
	dst = append(dst, "<PlannedQueryResponse>"...)
	dst = xmlwire.AppendInt(dst, "total", int64(r.Total))
	dst, err := appendRecords(r.Plan.appendXML(dst), r.Records)
	if err != nil {
		return nil, err
	}
	return append(dst, "</PlannedQueryResponse>"...), nil
}

// DecodeXML reads the message from d.
//
// provlint:typed-faults
func (r *PlannedQueryResponse) DecodeXML(d *xmlwire.Decoder) error {
	var err error
	if r.XMLName, err = startName(d, "PlannedQueryResponse"); err != nil {
		return err
	}
	var local core.RecordDecoder
	rd := core.RecordDecoderOf(d, &local)
	return d.Children(func(name []byte) error {
		switch string(name) {
		case "total":
			return d.Int(&r.Total)
		case "plan":
			return r.Plan.decodeXML(d)
		case "record":
			return rd.Append(d, &r.Records)
		}
		return d.Skip()
	})
}

// AppendXML appends the message.
func (r *PageQueryRequest) AppendXML(dst []byte) ([]byte, error) {
	dst, err := r.Query.AppendXML(append(dst, "<PageQueryRequest>"...))
	if err != nil {
		return nil, err
	}
	dst = appendNonEmpty(dst, "after", r.After)
	if r.PageSize != 0 {
		dst = xmlwire.AppendInt(dst, "pageSize", int64(r.PageSize))
	}
	return append(dst, "</PageQueryRequest>"...), nil
}

// DecodeXML reads the message from d.
//
// provlint:typed-faults
func (r *PageQueryRequest) DecodeXML(d *xmlwire.Decoder) error {
	var err error
	if r.XMLName, err = startName(d, "PageQueryRequest"); err != nil {
		return err
	}
	return d.Children(func(name []byte) error {
		switch string(name) {
		case "Query":
			return r.Query.DecodeXML(d)
		case "after":
			return d.String(&r.After)
		case "pageSize":
			return d.Int(&r.PageSize)
		}
		return d.Skip()
	})
}

// AppendXML appends the message.
func (r *PageQueryResponse) AppendXML(dst []byte) ([]byte, error) {
	dst = r.Plan.appendXML(append(dst, "<PageQueryResponse>"...))
	dst = appendNonEmpty(dst, "next", r.Next)
	dst = xmlwire.AppendBool(dst, "done", r.Done)
	dst, err := appendRecords(dst, r.Records)
	if err != nil {
		return nil, err
	}
	return append(dst, "</PageQueryResponse>"...), nil
}

// DecodeXML reads the message from d.
//
// provlint:typed-faults
func (r *PageQueryResponse) DecodeXML(d *xmlwire.Decoder) error {
	var err error
	if r.XMLName, err = startName(d, "PageQueryResponse"); err != nil {
		return err
	}
	var local core.RecordDecoder
	rd := core.RecordDecoderOf(d, &local)
	return d.Children(func(name []byte) error {
		switch string(name) {
		case "plan":
			return r.Plan.decodeXML(d)
		case "next":
			return d.String(&r.Next)
		case "done":
			return d.Bool(&r.Done)
		case "record":
			return rd.Append(d, &r.Records)
		}
		return d.Skip()
	})
}
