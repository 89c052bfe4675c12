package registry

import (
	"fmt"
	"net"
	"net/http"
	"time"

	"preserv/internal/core"
	"preserv/internal/soap"
)

// Server is a listening registry endpoint.
type Server struct {
	// URL is the registry endpoint.
	URL     string
	ln      net.Listener
	httpSrv *http.Server
	done    chan struct{}
}

// Serve starts serving the registry on addr ("127.0.0.1:0" picks a free
// port).
func Serve(r *Registry, addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("registry: listening on %s: %w", addr, err)
	}
	srv := &Server{
		URL:     "http://" + ln.Addr().String(),
		ln:      ln,
		httpSrv: &http.Server{Handler: soap.NewHTTPHandler(r.Handler()), ReadHeaderTimeout: 10 * time.Second},
		done:    make(chan struct{}),
	}
	go func() {
		defer close(srv.done)
		_ = srv.httpSrv.Serve(ln)
	}()
	return srv, nil
}

// Close stops the server.
func (s *Server) Close() error {
	err := s.httpSrv.Close()
	<-s.done
	return err
}

// Client talks to a registry endpoint over HTTP.
type Client struct {
	ep *soap.Endpoint
	// Calls counts registry invocations made through this client; the
	// paper's Figure 5 analysis hinges on calls-per-interaction.
	calls int64
}

// NewClient returns a registry client. A nil httpClient uses a dedicated
// client with a sane timeout.
func NewClient(url string, httpClient *http.Client) *Client {
	if httpClient == nil {
		httpClient = &http.Client{Timeout: 30 * time.Second}
	}
	return &Client{ep: soap.NewEndpoint(url, httpClient)}
}

// Calls reports how many registry invocations this client has made.
func (c *Client) Calls() int64 { return c.calls }

// Publish registers a service description.
func (c *Client) Publish(d *ServiceDescription) error {
	c.calls++
	return c.ep.Post(ActionPublish, d, nil)
}

// Lookup fetches a service description.
func (c *Client) Lookup(service core.ActorID) (*ServiceDescription, error) {
	c.calls++
	var d ServiceDescription
	if err := c.ep.Post(ActionLookup, &LookupRequest{Service: service}, &d); err != nil {
		return nil, err
	}
	return &d, nil
}

// Operations lists a service's operation names.
func (c *Client) Operations(service core.ActorID) ([]string, error) {
	c.calls++
	var resp OperationsResponse
	if err := c.ep.Post(ActionOperations, &OperationsRequest{Service: service}, &resp); err != nil {
		return nil, err
	}
	return resp.Operations, nil
}

// PartType resolves the semantic type of one message part.
func (c *Client) PartType(service core.ActorID, operation string, dir Direction, part string) (string, error) {
	c.calls++
	var resp PartTypeResponse
	req := &PartTypeRequest{Service: service, Operation: operation, Direction: dir, Part: part}
	if err := c.ep.Post(ActionPartType, req, &resp); err != nil {
		return "", err
	}
	return resp.SemanticType, nil
}

// AttachMetadata attaches a key-value annotation to a service.
func (c *Client) AttachMetadata(service core.ActorID, key, value string) error {
	c.calls++
	req := &AttachRequest{Service: service, Key: key, Value: value}
	return c.ep.Post(ActionAttach, req, &AttachResponse{})
}

// FindByMetadata performs metadata-based service discovery.
func (c *Client) FindByMetadata(key, value string) ([]core.ActorID, error) {
	c.calls++
	var resp FindResponse
	if err := c.ep.Post(ActionFind, &FindRequest{Key: key, Value: value}, &resp); err != nil {
		return nil, err
	}
	return resp.Services, nil
}
