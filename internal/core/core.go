// Package core defines the paper's technology-independent notion of
// provenance for service-oriented architectures: p-assertions.
//
// A p-assertion is "an assertion, by an actor, pertaining to the
// provenance of some data". The paper identifies two kinds:
//
//   - interaction p-assertions document the messages exchanged when a
//     client invokes a service (the inputs and outputs of the services
//     involved in generating a result);
//   - actor state p-assertions document an actor's internal state in the
//     context of a specific interaction — anything from the script being
//     executed to CPU consumption.
//
// P-assertions are further organised by groups — well-specified
// associations of interactions such as sessions (one workflow run) and
// threads (a sequential succession of activities) — which let later
// reasoning reconstruct execution structure.
//
// One representational note, recorded in DESIGN.md: PReP documents the
// request and the response of an invocation as two separate message
// p-assertions. This implementation documents a whole exchange (request
// parts + response parts) in a single interaction p-assertion, matching
// the paper's observed record volume of six records per permutation (one
// per Measure-workflow activity). Both parties may still assert their
// own view of the same interaction.
package core

import (
	"crypto/sha256"
	"encoding/base64"
	"errors"
	"fmt"
	"time"

	"preserv/internal/ids"
)

// ActorID identifies an actor — a client or a service — by a stable
// URI-like name (e.g. "svc:gzip-compression").
type ActorID string

// View states which party to an interaction is making an assertion.
type View int

// Views of an interaction.
const (
	// SenderView marks assertions by the party that sent the invocation
	// (the client; in the experiment, the workflow enactor).
	SenderView View = iota + 1
	// ReceiverView marks assertions by the invoked service.
	ReceiverView
)

// String returns the view's wire name.
func (v View) String() string {
	switch v {
	case SenderView:
		return "sender"
	case ReceiverView:
		return "receiver"
	default:
		return fmt.Sprintf("view(%d)", int(v))
	}
}

// ParseView converts a wire name back to a View.
func ParseView(s string) (View, error) { return parseView(s) }

// parseView is ParseView, and UnmarshalText's parser too: it reads
// either form of text without copying it.
func parseView[T string | []byte](s T) (View, error) {
	switch string(s) {
	case "sender":
		return SenderView, nil
	case "receiver":
		return ReceiverView, nil
	}
	return 0, fmt.Errorf("core: unknown view %q", s)
}

// Interaction identifies one client-service exchange. The ID is globally
// unique so that assertions contributed independently by both parties —
// possibly through different technologies — can be joined later, even
// when multiple workflows run simultaneously.
type Interaction struct {
	ID ids.ID `xml:"id"`
	// Sender is the invoking actor (client).
	Sender ActorID `xml:"sender"`
	// Receiver is the invoked actor (service).
	Receiver ActorID `xml:"receiver"`
	// Operation names the service operation invoked.
	Operation string `xml:"operation"`
}

// Group types with well-understood semantics, per the paper.
const (
	// GroupSession denotes one workflow run.
	GroupSession = "session"
	// GroupThread denotes a sequential succession of activities.
	GroupThread = "thread"
)

// GroupRef places an interaction inside a named group with a sequence
// number that orders the group's members.
type GroupRef struct {
	Type string `xml:"type"`
	ID   ids.ID `xml:"id"`
	Seq  uint64 `xml:"seq"`
}

// Bytes is a byte slice that serialises as base64 text, keeping binary
// payloads (compressed samples, for instance) safe inside XML documents.
type Bytes []byte

// MarshalText implements encoding.TextMarshaler.
func (b Bytes) MarshalText() ([]byte, error) {
	out := make([]byte, base64.StdEncoding.EncodedLen(len(b)))
	base64.StdEncoding.Encode(out, b)
	return out, nil
}

// UnmarshalText implements encoding.TextUnmarshaler.
func (b *Bytes) UnmarshalText(text []byte) error {
	return b.decode(make([]byte, base64.StdEncoding.DecodedLen(len(text))), text)
}

// decode sets *b to base64 text decoded into out, which has room for it.
func (b *Bytes) decode(out, text []byte) error {
	n, err := base64.StdEncoding.Decode(out, text)
	if err != nil {
		return fmt.Errorf("core: decoding content: %w", err)
	}
	*b = out[:n]
	return nil
}

// ContentStyle is PReP's documentation style: how a message part's value
// is represented inside a p-assertion. Actors choose a style per part —
// small values verbatim, large ones by cryptographic digest — without
// affecting data identity, which DataID carries regardless.
type ContentStyle string

// Documentation styles.
const (
	// StyleVerbatim documents the value byte-for-byte.
	StyleVerbatim ContentStyle = "verbatim"
	// StyleDigest documents the value by its SHA-256 digest; equality of
	// values remains checkable, content is not reproducible.
	StyleDigest ContentStyle = "digest"
	// StyleOmitted documents only the part's existence and identity.
	StyleOmitted ContentStyle = "omitted"
)

// MessagePart is one named element of a message. DataID identifies the
// data item flowing through the part, allowing unambiguous input/output
// linkage across interactions; Content carries the documentation of the
// value itself, in the representation Style declares.
type MessagePart struct {
	Name string `xml:"name"`
	// DataID identifies the data item; parts carrying literal
	// configuration rather than flowing data may leave it nil.
	DataID ids.ID `xml:"dataId,omitempty"`
	// ContentType is a hint such as "text/plain" or "application/fasta".
	ContentType string `xml:"contentType,omitempty"`
	// Style is the documentation style; empty means StyleVerbatim.
	Style   ContentStyle `xml:"style,omitempty"`
	Content Bytes        `xml:"content,omitempty"`
}

// DocumentContent builds the (Style, Content) documentation of a value:
// verbatim up to maxVerbatim bytes, SHA-256 digest beyond, omitted when
// maxVerbatim is zero and the value is non-empty. A negative maxVerbatim
// documents everything verbatim.
func DocumentContent(value []byte, maxVerbatim int) (ContentStyle, Bytes) {
	switch {
	case maxVerbatim < 0 || len(value) <= maxVerbatim:
		return StyleVerbatim, Bytes(append([]byte(nil), value...))
	case maxVerbatim == 0:
		return StyleOmitted, nil
	default:
		sum := sha256.Sum256(value)
		return StyleDigest, Bytes(sum[:])
	}
}

// Message is a named list of parts (an invocation or a result).
type Message struct {
	Name  string        `xml:"name"`
	Parts []MessagePart `xml:"part"`
}

// InteractionPAssertion documents one interaction from one party's view.
type InteractionPAssertion struct {
	// LocalID distinguishes multiple assertions by the same asserter
	// about the same interaction.
	LocalID string `xml:"localId"`
	// Asserter is the actor making the assertion.
	Asserter    ActorID     `xml:"asserter"`
	Interaction Interaction `xml:"interaction"`
	View        View        `xml:"view"`
	// Request documents the invocation message, Response the result.
	Request  Message    `xml:"request"`
	Response Message    `xml:"response"`
	Groups   []GroupRef `xml:"group,omitempty"`
	// Timestamp is when the assertion was created (not when the
	// interaction occurred; actors may assert after the fact).
	Timestamp time.Time `xml:"timestamp"`
}

// ActorStatePAssertion documents internal actor state in the context of
// an interaction: the executed script, resource usage, configuration...
type ActorStatePAssertion struct {
	LocalID     string      `xml:"localId"`
	Asserter    ActorID     `xml:"asserter"`
	Interaction Interaction `xml:"interaction"`
	View        View        `xml:"view"`
	// StateKind labels the category of state documented.
	StateKind string `xml:"stateKind"`
	// Content is the state documentation itself (e.g. the full script
	// text, so changes between runs can be detected byte-for-byte).
	Content   Bytes      `xml:"content"`
	Groups    []GroupRef `xml:"group,omitempty"`
	Timestamp time.Time  `xml:"timestamp"`
}

// Well-known StateKind values used by the experiment.
const (
	StateScript   = "script"
	StateConfig   = "config"
	StateResource = "resource-usage"
	StateWorkflow = "workflow-definition"
)

// Kind discriminates record payloads.
type Kind int

// Record kinds.
const (
	KindInteraction Kind = iota + 1
	KindActorState
)

// String returns the kind's wire name.
func (k Kind) String() string {
	switch k {
	case KindInteraction:
		return "interaction"
	case KindActorState:
		return "actorState"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Record is the storage and transport unit: exactly one of the payload
// pointers is set, matching Kind.
type Record struct {
	Kind        Kind                   `xml:"kind"`
	Interaction *InteractionPAssertion `xml:"interactionPAssertion,omitempty"`
	ActorState  *ActorStatePAssertion  `xml:"actorStatePAssertion,omitempty"`
}

// Validation errors.
var (
	ErrInvalid = errors.New("core: invalid p-assertion")
)

// ErrOldFormat refuses a store directory, an index or a client journal
// in a layout an earlier version wrote. The refusal names the layout and
// a commit whose binary reads it, and changes nothing on disk.
var ErrOldFormat = errors.New("core: on-disk format of an earlier version")

// LastAdoptingCommit is the last commit whose binary adopts every
// layout ErrOldFormat refuses but a schema-2 index (see index.Open).
const LastAdoptingCommit = "fcdde55"

// MinYear and MaxYear bound an assertion timestamp's UTC year: the range
// time.MarshalText carries on the wire, and the one over which the time
// index's fixed-width terms sort chronologically (a year-10000 term
// would sort before "2005…").
const (
	MinYear = 0
	MaxYear = 9999
)

func validateCommon(localID string, asserter ActorID, in Interaction, v View, groups []GroupRef, ts time.Time) error {
	if y := ts.UTC().Year(); y < MinYear || y > MaxYear {
		return fmt.Errorf("%w: timestamp %s outside years %d-%d", ErrInvalid, ts.UTC().Format(time.RFC3339), MinYear, MaxYear)
	}
	if localID == "" {
		return fmt.Errorf("%w: empty local id", ErrInvalid)
	}
	if asserter == "" {
		return fmt.Errorf("%w: empty asserter", ErrInvalid)
	}
	if !in.ID.Valid() {
		return fmt.Errorf("%w: invalid interaction id", ErrInvalid)
	}
	if in.Sender == "" || in.Receiver == "" {
		return fmt.Errorf("%w: interaction requires sender and receiver", ErrInvalid)
	}
	if v != SenderView && v != ReceiverView {
		return fmt.Errorf("%w: bad view %d", ErrInvalid, v)
	}
	if v == SenderView && asserter != in.Sender {
		return fmt.Errorf("%w: sender view must be asserted by the sender (%s != %s)", ErrInvalid, asserter, in.Sender)
	}
	if v == ReceiverView && asserter != in.Receiver {
		return fmt.Errorf("%w: receiver view must be asserted by the receiver (%s != %s)", ErrInvalid, asserter, in.Receiver)
	}
	for _, g := range groups {
		if g.Type == "" || !g.ID.Valid() {
			return fmt.Errorf("%w: malformed group reference %+v", ErrInvalid, g)
		}
	}
	return nil
}

// Validate checks structural well-formedness.
func (p *InteractionPAssertion) Validate() error {
	return validateCommon(p.LocalID, p.Asserter, p.Interaction, p.View, p.Groups, p.Timestamp)
}

// Validate checks structural well-formedness.
func (p *ActorStatePAssertion) Validate() error {
	if err := validateCommon(p.LocalID, p.Asserter, p.Interaction, p.View, p.Groups, p.Timestamp); err != nil {
		return err
	}
	if p.StateKind == "" {
		return fmt.Errorf("%w: actor state requires a state kind", ErrInvalid)
	}
	return nil
}

// Validate checks that the record is well-formed and internally
// consistent (Kind matches the populated payload).
func (r *Record) Validate() error {
	switch r.Kind {
	case KindInteraction:
		if r.Interaction == nil || r.ActorState != nil {
			return fmt.Errorf("%w: interaction record payload mismatch", ErrInvalid)
		}
		return r.Interaction.Validate()
	case KindActorState:
		if r.ActorState == nil || r.Interaction != nil {
			return fmt.Errorf("%w: actor state record payload mismatch", ErrInvalid)
		}
		return r.ActorState.Validate()
	default:
		return fmt.Errorf("%w: unknown kind %d", ErrInvalid, r.Kind)
	}
}

// InteractionID returns the interaction the record documents.
func (r *Record) InteractionID() ids.ID {
	switch r.Kind {
	case KindInteraction:
		if r.Interaction != nil {
			return r.Interaction.Interaction.ID
		}
	case KindActorState:
		if r.ActorState != nil {
			return r.ActorState.Interaction.ID
		}
	}
	return ids.Nil
}

// Asserter returns the asserting actor.
func (r *Record) Asserter() ActorID {
	switch r.Kind {
	case KindInteraction:
		if r.Interaction != nil {
			return r.Interaction.Asserter
		}
	case KindActorState:
		if r.ActorState != nil {
			return r.ActorState.Asserter
		}
	}
	return ""
}

// View returns the asserted view.
func (r *Record) View() View {
	switch r.Kind {
	case KindInteraction:
		if r.Interaction != nil {
			return r.Interaction.View
		}
	case KindActorState:
		if r.ActorState != nil {
			return r.ActorState.View
		}
	}
	return 0
}

// LocalID returns the asserter-local identifier.
func (r *Record) LocalID() string {
	switch r.Kind {
	case KindInteraction:
		if r.Interaction != nil {
			return r.Interaction.LocalID
		}
	case KindActorState:
		if r.ActorState != nil {
			return r.ActorState.LocalID
		}
	}
	return ""
}

// Receiver returns the receiving actor (the invoked service) of the
// interaction the record documents.
func (r *Record) Receiver() ActorID {
	switch r.Kind {
	case KindInteraction:
		if r.Interaction != nil {
			return r.Interaction.Interaction.Receiver
		}
	case KindActorState:
		if r.ActorState != nil {
			return r.ActorState.Interaction.Receiver
		}
	}
	return ""
}

// Timestamp returns when the assertion was created.
func (r *Record) Timestamp() time.Time {
	switch r.Kind {
	case KindInteraction:
		if r.Interaction != nil {
			return r.Interaction.Timestamp
		}
	case KindActorState:
		if r.ActorState != nil {
			return r.ActorState.Timestamp
		}
	}
	return time.Time{}
}

// DataIDs returns the distinct data identifiers carried by the record's
// message parts, in order of first appearance (request before response).
// Actor-state records carry no message parts and return nil.
func (r *Record) DataIDs() []ids.ID { return r.AppendDataIDs(nil) }

// AppendDataIDs appends to dst what DataIDs returns, for a caller that
// reuses one slice across records.
func (r *Record) AppendDataIDs(dst []ids.ID) []ids.ID {
	if r.Kind != KindInteraction || r.Interaction == nil {
		return dst
	}
	// A record has a handful of parts: a linear scan of the ids kept so
	// far dedupes them without a map, and a nil dst is sized for all of
	// them on first use.
	start := len(dst)
	p := r.Interaction
	for _, msg := range [...]*Message{&p.Request, &p.Response} {
	parts:
		for i := range msg.Parts {
			id := msg.Parts[i].DataID
			if !id.Valid() {
				continue
			}
			for _, seen := range dst[start:] {
				if seen == id {
					continue parts
				}
			}
			if dst == nil {
				dst = make([]ids.ID, 0, len(p.Request.Parts)+len(p.Response.Parts))
			}
			dst = append(dst, id)
		}
	}
	return dst
}

// Groups returns the record's group references.
func (r *Record) Groups() []GroupRef {
	switch r.Kind {
	case KindInteraction:
		if r.Interaction != nil {
			return r.Interaction.Groups
		}
	case KindActorState:
		if r.ActorState != nil {
			return r.ActorState.Groups
		}
	}
	return nil
}

// GroupID returns the ID of the first group of the given type, if any.
func (r *Record) GroupID(groupType string) (ids.ID, bool) {
	for _, g := range r.Groups() {
		if g.Type == groupType {
			return g.ID, true
		}
	}
	return ids.Nil, false
}

// StorageKey returns the unique key under which the record is stored:
// kind / interaction id / view / asserter / local id. Two distinct valid
// records can never share a key, and all records of one interaction
// share a key prefix — which is what the store's lookups index on.
func (r *Record) StorageKey() string {
	// Built on the stack, which a key of usual length fits: the store and
	// the index each ask for the key of every record they take.
	var buf [128]byte
	return string(r.AppendStorageKey(buf[:0]))
}

// AppendStorageKey appends the record's storage key to dst.
func (r *Record) AppendStorageKey(dst []byte) []byte {
	kindTag := byte('?')
	switch r.Kind {
	case KindInteraction:
		kindTag = 'i'
	case KindActorState:
		kindTag = 's'
	}
	dst = r.InteractionID().AppendString(append(dst, kindTag, '/'))
	dst = append(append(dst, '/'), r.View().String()...)
	dst = append(append(dst, '/'), r.Asserter()...)
	return append(append(dst, '/'), r.LocalID()...)
}

// NewInteractionRecord wraps an interaction p-assertion as a Record.
func NewInteractionRecord(p *InteractionPAssertion) *Record {
	return &Record{Kind: KindInteraction, Interaction: p}
}

// NewActorStateRecord wraps an actor state p-assertion as a Record.
func NewActorStateRecord(p *ActorStatePAssertion) *Record {
	return &Record{Kind: KindActorState, ActorState: p}
}
