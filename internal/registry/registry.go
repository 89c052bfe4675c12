// Package registry implements a Grimoires-like service registry: a
// UDDI-style directory extended with metadata attachment, used by the
// semantic-validity use case. Each workflow activity is described by the
// abstract part of a WSDL-like interface; every message part of every
// operation is annotated with a semantic type from the application
// ontology. The registry "provides an interface that supports metadata
// publication and metadata-based service discovery".
package registry

import (
	"encoding/xml"
	"fmt"
	"sort"
	"strings"
	"sync"

	"preserv/internal/core"
	"preserv/internal/soap"
)

// Direction distinguishes input from output message parts.
type Direction string

// Part directions.
const (
	Input  Direction = "input"
	Output Direction = "output"
)

// PartDecl declares one message part of an operation together with its
// semantic-type annotation.
type PartDecl struct {
	Name string `xml:"name"`
	// SemanticType is a type URI from the application ontology.
	SemanticType string `xml:"semanticType"`
}

// Operation is the abstract description of one service operation.
type Operation struct {
	Name    string     `xml:"name"`
	Inputs  []PartDecl `xml:"input"`
	Outputs []PartDecl `xml:"output"`
}

// ServiceDescription is the WSDL-like interface description of one
// service, published to the registry.
type ServiceDescription struct {
	XMLName     xml.Name     `xml:"ServiceDescription"`
	Service     core.ActorID `xml:"service"`
	Description string       `xml:"description,omitempty"`
	Operations  []Operation  `xml:"operation"`
}

// Validate checks structural well-formedness.
func (d *ServiceDescription) Validate() error {
	if d.Service == "" {
		return fmt.Errorf("registry: description requires a service name")
	}
	if len(d.Operations) == 0 {
		return fmt.Errorf("registry: %s declares no operations", d.Service)
	}
	seen := make(map[string]bool)
	for _, op := range d.Operations {
		if op.Name == "" {
			return fmt.Errorf("registry: %s has an unnamed operation", d.Service)
		}
		if seen[op.Name] {
			return fmt.Errorf("registry: %s declares operation %q twice", d.Service, op.Name)
		}
		seen[op.Name] = true
		parts := make(map[string]bool)
		for _, p := range append(append([]PartDecl{}, op.Inputs...), op.Outputs...) {
			if p.Name == "" {
				return fmt.Errorf("registry: %s.%s has an unnamed part", d.Service, op.Name)
			}
			if p.SemanticType == "" {
				return fmt.Errorf("registry: %s.%s part %q lacks a semantic type", d.Service, op.Name, p.Name)
			}
			_ = parts
		}
	}
	return nil
}

// Operation returns the named operation, if declared.
func (d *ServiceDescription) Operation(name string) (*Operation, bool) {
	for i := range d.Operations {
		if d.Operations[i].Name == name {
			return &d.Operations[i], true
		}
	}
	return nil, false
}

// PartType returns the semantic type of the named part in the given
// direction. A declaration whose name ends in '*' matches any part with
// that prefix — the WSDL maxOccurs-style array-of-parts case (the
// Collate Sizes activity takes one sizes table per permutation batch).
func (op *Operation) PartType(dir Direction, part string) (string, bool) {
	decls := op.Inputs
	if dir == Output {
		decls = op.Outputs
	}
	for _, p := range decls {
		if p.Name == part {
			return p.SemanticType, true
		}
	}
	for _, p := range decls {
		if n := len(p.Name); n > 0 && p.Name[n-1] == '*' && strings.HasPrefix(part, p.Name[:n-1]) {
			return p.SemanticType, true
		}
	}
	return "", false
}

// Registry is the in-process registry state.
type Registry struct {
	mu       sync.RWMutex
	services map[core.ActorID]*ServiceDescription
	// metadata holds free-form key-value annotations per service, the
	// Grimoires "attachment of metadata to service descriptions".
	metadata map[core.ActorID]map[string]string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		services: make(map[core.ActorID]*ServiceDescription),
		metadata: make(map[core.ActorID]map[string]string),
	}
}

// Publish registers (or replaces) a service description.
func (r *Registry) Publish(d *ServiceDescription) error {
	if err := d.Validate(); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	copied := *d
	copied.Operations = append([]Operation(nil), d.Operations...)
	r.services[d.Service] = &copied
	return nil
}

// Lookup returns the description published for service.
func (r *Registry) Lookup(service core.ActorID) (*ServiceDescription, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	d, ok := r.services[service]
	return d, ok
}

// PartType resolves the semantic type of one message part — the granular
// metadata query the semantic validator issues repeatedly (the paper
// observes about ten registry calls per validated interaction).
func (r *Registry) PartType(service core.ActorID, operation string, dir Direction, part string) (string, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	d, ok := r.services[service]
	if !ok {
		return "", fmt.Errorf("registry: unknown service %q", service)
	}
	op, ok := d.Operation(operation)
	if !ok {
		return "", fmt.Errorf("registry: service %q has no operation %q", service, operation)
	}
	typ, ok := op.PartType(dir, part)
	if !ok {
		return "", fmt.Errorf("registry: %s.%s has no %s part %q", service, operation, dir, part)
	}
	return typ, nil
}

// AttachMetadata attaches a key-value annotation to a service.
func (r *Registry) AttachMetadata(service core.ActorID, key, value string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.services[service]; !ok {
		return fmt.Errorf("registry: unknown service %q", service)
	}
	m := r.metadata[service]
	if m == nil {
		m = make(map[string]string)
		r.metadata[service] = m
	}
	m[key] = value
	return nil
}

// Metadata returns the value attached to service under key.
func (r *Registry) Metadata(service core.ActorID, key string) (string, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	v, ok := r.metadata[service][key]
	return v, ok
}

// Services lists all published service names, sorted.
func (r *Registry) Services() []core.ActorID {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]core.ActorID, 0, len(r.services))
	for s := range r.services {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// FindByMetadata returns services whose metadata key equals value —
// metadata-based service discovery.
func (r *Registry) FindByMetadata(key, value string) []core.ActorID {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []core.ActorID
	for s, m := range r.metadata {
		if m[key] == value {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Action URIs of the registry web service.
const (
	ActionPublish    = "urn:grimoires:publish"
	ActionLookup     = "urn:grimoires:lookup"
	ActionOperations = "urn:grimoires:operations"
	ActionPartType   = "urn:grimoires:part-type"
	ActionAttach     = "urn:grimoires:attach-metadata"
	ActionFind       = "urn:grimoires:find"
)

// Wire message types.
type (
	// PublishResponse acknowledges a publish.
	PublishResponse struct {
		XMLName xml.Name     `xml:"PublishResponse"`
		Service core.ActorID `xml:"service"`
	}
	// LookupRequest fetches a service description.
	LookupRequest struct {
		XMLName xml.Name     `xml:"LookupRequest"`
		Service core.ActorID `xml:"service"`
	}
	// OperationsRequest lists a service's operation names.
	OperationsRequest struct {
		XMLName xml.Name     `xml:"OperationsRequest"`
		Service core.ActorID `xml:"service"`
	}
	// OperationsResponse carries the operation names.
	OperationsResponse struct {
		XMLName    xml.Name `xml:"OperationsResponse"`
		Operations []string `xml:"operation"`
	}
	// PartTypeRequest resolves one part's semantic type.
	PartTypeRequest struct {
		XMLName   xml.Name     `xml:"PartTypeRequest"`
		Service   core.ActorID `xml:"service"`
		Operation string       `xml:"operation"`
		Direction Direction    `xml:"direction"`
		Part      string       `xml:"part"`
	}
	// PartTypeResponse carries the resolved type.
	PartTypeResponse struct {
		XMLName      xml.Name `xml:"PartTypeResponse"`
		SemanticType string   `xml:"semanticType"`
	}
	// AttachRequest attaches metadata to a service.
	AttachRequest struct {
		XMLName xml.Name     `xml:"AttachRequest"`
		Service core.ActorID `xml:"service"`
		Key     string       `xml:"key"`
		Value   string       `xml:"value"`
	}
	// AttachResponse acknowledges an attach.
	AttachResponse struct {
		XMLName xml.Name `xml:"AttachResponse"`
	}
	// FindRequest performs metadata-based discovery.
	FindRequest struct {
		XMLName xml.Name `xml:"FindRequest"`
		Key     string   `xml:"key"`
		Value   string   `xml:"value"`
	}
	// FindResponse lists matching services.
	FindResponse struct {
		XMLName  xml.Name       `xml:"FindResponse"`
		Services []core.ActorID `xml:"service"`
	}
)

// Handler returns the registry's action table, for soap.NewHTTPHandler.
func (r *Registry) Handler() map[string]soap.Action {
	return map[string]soap.Action{
		ActionPublish:    r.servePublish,
		ActionLookup:     r.serveLookup,
		ActionOperations: r.serveOperations,
		ActionPartType:   r.servePartType,
		ActionAttach:     r.serveAttach,
		ActionFind:       r.serveFind,
	}
}

// provlint:typed-faults
func (r *Registry) servePublish(body *soap.Message) (any, error) {
	var d ServiceDescription
	if err := body.Decode(&d); err != nil {
		return nil, &soap.Fault{Code: soap.FaultBadRequest, Message: err.Error()}
	}
	if err := r.Publish(&d); err != nil {
		return nil, &soap.Fault{Code: soap.FaultBadRequest, Message: err.Error()}
	}
	return &PublishResponse{Service: d.Service}, nil
}

// provlint:typed-faults
func (r *Registry) serveLookup(body *soap.Message) (any, error) {
	var req LookupRequest
	if err := body.Decode(&req); err != nil {
		return nil, &soap.Fault{Code: soap.FaultBadRequest, Message: err.Error()}
	}
	d, ok := r.Lookup(req.Service)
	if !ok {
		return nil, &soap.Fault{Code: soap.FaultBadRequest, Message: "unknown service " + string(req.Service)}
	}
	return d, nil
}

// provlint:typed-faults
func (r *Registry) serveOperations(body *soap.Message) (any, error) {
	var req OperationsRequest
	if err := body.Decode(&req); err != nil {
		return nil, &soap.Fault{Code: soap.FaultBadRequest, Message: err.Error()}
	}
	d, ok := r.Lookup(req.Service)
	if !ok {
		return nil, &soap.Fault{Code: soap.FaultBadRequest, Message: "unknown service " + string(req.Service)}
	}
	ops := make([]string, len(d.Operations))
	for i := range d.Operations {
		ops[i] = d.Operations[i].Name
	}
	return &OperationsResponse{Operations: ops}, nil
}

// provlint:typed-faults
func (r *Registry) servePartType(body *soap.Message) (any, error) {
	var req PartTypeRequest
	if err := body.Decode(&req); err != nil {
		return nil, &soap.Fault{Code: soap.FaultBadRequest, Message: err.Error()}
	}
	typ, err := r.PartType(req.Service, req.Operation, req.Direction, req.Part)
	if err != nil {
		return nil, &soap.Fault{Code: soap.FaultBadRequest, Message: err.Error()}
	}
	return &PartTypeResponse{SemanticType: typ}, nil
}

// provlint:typed-faults
func (r *Registry) serveAttach(body *soap.Message) (any, error) {
	var req AttachRequest
	if err := body.Decode(&req); err != nil {
		return nil, &soap.Fault{Code: soap.FaultBadRequest, Message: err.Error()}
	}
	if err := r.AttachMetadata(req.Service, req.Key, req.Value); err != nil {
		return nil, &soap.Fault{Code: soap.FaultBadRequest, Message: err.Error()}
	}
	return &AttachResponse{}, nil
}

// provlint:typed-faults
func (r *Registry) serveFind(body *soap.Message) (any, error) {
	var req FindRequest
	if err := body.Decode(&req); err != nil {
		return nil, &soap.Fault{Code: soap.FaultBadRequest, Message: err.Error()}
	}
	return &FindResponse{Services: r.FindByMetadata(req.Key, req.Value)}, nil
}
