package core

import (
	"time"

	"preserv/internal/xmlwire"
)

// Wire codec. Records cross the wire as XML inside PReP messages; the
// AppendXML/DecodeXML methods below write and read that XML directly,
// without encoding/xml's reflection. The struct tags above remain the
// specification: AppendXML's output is byte-identical to xml.Marshal's
// and DecodeXML yields what xml.Unmarshal yields (the differential
// tests hold both to it), so either side of a connection may be a
// build that still uses encoding/xml.
//
// Like a tagged field, a value without an XMLName is named by its
// parent: AppendXML takes the element name, and DecodeXML is called
// once the parent has read the start tag, reads through the end tag
// and sets only the fields whose elements appear.

// AppendXML appends the record as the element <tag>.
func (r *Record) AppendXML(dst []byte, tag string) ([]byte, error) {
	if r.Kind != KindInteraction && r.Kind != KindActorState {
		_, err := r.Kind.MarshalText()
		return nil, err
	}
	var err error
	dst = xmlwire.AppendOpen(dst, tag)
	dst = xmlwire.AppendString(dst, "kind", r.Kind.String())
	if r.Interaction != nil {
		if dst, err = r.Interaction.AppendXML(dst, "interactionPAssertion"); err != nil {
			return nil, err
		}
	}
	if r.ActorState != nil {
		if dst, err = r.ActorState.AppendXML(dst, "actorStatePAssertion"); err != nil {
			return nil, err
		}
	}
	return xmlwire.AppendClose(dst, tag), nil
}

// DecodeXML reads the record from d.
//
// provlint:typed-faults
func (r *Record) DecodeXML(d *xmlwire.Decoder) error {
	return d.Children(func(name []byte) error {
		switch string(name) {
		case "kind":
			return d.Unmarshal(&r.Kind)
		case "interactionPAssertion":
			if r.Interaction == nil {
				r.Interaction = new(InteractionPAssertion)
			}
			return r.Interaction.DecodeXML(d)
		case "actorStatePAssertion":
			if r.ActorState == nil {
				r.ActorState = new(ActorStatePAssertion)
			}
			return r.ActorState.DecodeXML(d)
		}
		return d.Skip()
	})
}

// appendAssertionHead appends the four leading fields the two
// p-assertion kinds share.
func appendAssertionHead(dst []byte, localID string, asserter ActorID, in *Interaction, v View) ([]byte, error) {
	if v != SenderView && v != ReceiverView {
		_, err := v.MarshalText()
		return nil, err
	}
	dst = xmlwire.AppendString(dst, "localId", localID)
	dst = xmlwire.AppendString(dst, "asserter", string(asserter))
	dst = in.AppendXML(dst, "interaction")
	return xmlwire.AppendString(dst, "view", v.String()), nil
}

// appendAssertionTail appends the two trailing fields the p-assertion
// kinds share.
func appendAssertionTail(dst []byte, groups []GroupRef, ts time.Time) ([]byte, error) {
	for i := range groups {
		dst = groups[i].AppendXML(dst, "group")
	}
	return xmlwire.AppendTime(dst, "timestamp", ts)
}

// AppendXML appends the p-assertion as the element <tag>.
func (p *InteractionPAssertion) AppendXML(dst []byte, tag string) ([]byte, error) {
	dst, err := appendAssertionHead(xmlwire.AppendOpen(dst, tag), p.LocalID, p.Asserter, &p.Interaction, p.View)
	if err != nil {
		return nil, err
	}
	dst = p.Request.AppendXML(dst, "request")
	dst = p.Response.AppendXML(dst, "response")
	if dst, err = appendAssertionTail(dst, p.Groups, p.Timestamp); err != nil {
		return nil, err
	}
	return xmlwire.AppendClose(dst, tag), nil
}

// DecodeXML reads the p-assertion from d.
func (p *InteractionPAssertion) DecodeXML(d *xmlwire.Decoder) error {
	return d.Children(func(name []byte) error {
		switch string(name) {
		case "localId":
			return d.String(&p.LocalID)
		case "asserter":
			return d.String((*string)(&p.Asserter))
		case "interaction":
			return p.Interaction.DecodeXML(d)
		case "view":
			return d.Unmarshal(&p.View)
		case "request":
			return p.Request.DecodeXML(d)
		case "response":
			return p.Response.DecodeXML(d)
		case "group":
			p.Groups = append(p.Groups, GroupRef{})
			return p.Groups[len(p.Groups)-1].DecodeXML(d)
		case "timestamp":
			return d.Unmarshal(&p.Timestamp)
		}
		return d.Skip()
	})
}

// AppendXML appends the p-assertion as the element <tag>.
func (p *ActorStatePAssertion) AppendXML(dst []byte, tag string) ([]byte, error) {
	dst, err := appendAssertionHead(xmlwire.AppendOpen(dst, tag), p.LocalID, p.Asserter, &p.Interaction, p.View)
	if err != nil {
		return nil, err
	}
	dst = xmlwire.AppendString(dst, "stateKind", p.StateKind)
	dst = xmlwire.AppendBase64(dst, "content", p.Content)
	if dst, err = appendAssertionTail(dst, p.Groups, p.Timestamp); err != nil {
		return nil, err
	}
	return xmlwire.AppendClose(dst, tag), nil
}

// DecodeXML reads the p-assertion from d.
func (p *ActorStatePAssertion) DecodeXML(d *xmlwire.Decoder) error {
	return d.Children(func(name []byte) error {
		switch string(name) {
		case "localId":
			return d.String(&p.LocalID)
		case "asserter":
			return d.String((*string)(&p.Asserter))
		case "interaction":
			return p.Interaction.DecodeXML(d)
		case "view":
			return d.Unmarshal(&p.View)
		case "stateKind":
			return d.String(&p.StateKind)
		case "content":
			return d.Unmarshal(&p.Content)
		case "group":
			p.Groups = append(p.Groups, GroupRef{})
			return p.Groups[len(p.Groups)-1].DecodeXML(d)
		case "timestamp":
			return d.Unmarshal(&p.Timestamp)
		}
		return d.Skip()
	})
}

// AppendXML appends the interaction as the element <tag>.
func (in *Interaction) AppendXML(dst []byte, tag string) []byte {
	dst = xmlwire.AppendOpen(dst, tag)
	dst = in.ID.AppendXML(dst, "id")
	dst = xmlwire.AppendString(dst, "sender", string(in.Sender))
	dst = xmlwire.AppendString(dst, "receiver", string(in.Receiver))
	dst = xmlwire.AppendString(dst, "operation", in.Operation)
	return xmlwire.AppendClose(dst, tag)
}

// DecodeXML reads the interaction from d.
func (in *Interaction) DecodeXML(d *xmlwire.Decoder) error {
	return d.Children(func(name []byte) error {
		switch string(name) {
		case "id":
			return d.Unmarshal(&in.ID)
		case "sender":
			return d.String((*string)(&in.Sender))
		case "receiver":
			return d.String((*string)(&in.Receiver))
		case "operation":
			return d.String(&in.Operation)
		}
		return d.Skip()
	})
}

// AppendXML appends the group reference as the element <tag>.
func (g *GroupRef) AppendXML(dst []byte, tag string) []byte {
	dst = xmlwire.AppendOpen(dst, tag)
	dst = xmlwire.AppendString(dst, "type", g.Type)
	dst = g.ID.AppendXML(dst, "id")
	dst = xmlwire.AppendUint(dst, "seq", g.Seq)
	return xmlwire.AppendClose(dst, tag)
}

// DecodeXML reads the group reference from d.
func (g *GroupRef) DecodeXML(d *xmlwire.Decoder) error {
	return d.Children(func(name []byte) error {
		switch string(name) {
		case "type":
			return d.String(&g.Type)
		case "id":
			return d.Unmarshal(&g.ID)
		case "seq":
			return d.Uint64(&g.Seq)
		}
		return d.Skip()
	})
}

// AppendXML appends the message as the element <tag>.
func (m *Message) AppendXML(dst []byte, tag string) []byte {
	dst = xmlwire.AppendOpen(dst, tag)
	dst = xmlwire.AppendString(dst, "name", m.Name)
	for i := range m.Parts {
		dst = m.Parts[i].AppendXML(dst, "part")
	}
	return xmlwire.AppendClose(dst, tag)
}

// DecodeXML reads the message from d.
func (m *Message) DecodeXML(d *xmlwire.Decoder) error {
	return d.Children(func(name []byte) error {
		switch string(name) {
		case "name":
			return d.String(&m.Name)
		case "part":
			m.Parts = append(m.Parts, MessagePart{})
			return m.Parts[len(m.Parts)-1].DecodeXML(d)
		}
		return d.Skip()
	})
}

// AppendXML appends the part as the element <tag>.
func (p *MessagePart) AppendXML(dst []byte, tag string) []byte {
	dst = xmlwire.AppendOpen(dst, tag)
	dst = xmlwire.AppendString(dst, "name", p.Name)
	dst = p.DataID.AppendXML(dst, "dataId")
	if p.ContentType != "" {
		dst = xmlwire.AppendString(dst, "contentType", p.ContentType)
	}
	if p.Style != "" {
		dst = xmlwire.AppendString(dst, "style", string(p.Style))
	}
	if len(p.Content) > 0 {
		dst = xmlwire.AppendBase64(dst, "content", p.Content)
	}
	return xmlwire.AppendClose(dst, tag)
}

// DecodeXML reads the part from d.
func (p *MessagePart) DecodeXML(d *xmlwire.Decoder) error {
	return d.Children(func(name []byte) error {
		switch string(name) {
		case "name":
			return d.String(&p.Name)
		case "dataId":
			return d.Unmarshal(&p.DataID)
		case "contentType":
			return d.String(&p.ContentType)
		case "style":
			return d.String((*string)(&p.Style))
		case "content":
			return d.Unmarshal(&p.Content)
		}
		return d.Skip()
	})
}
