package faultinject

import (
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// Proxy is a TCP proxy that sits between two real peers — in the chaos
// tests, between a replication follower and its primary — and applies a
// fresh fault Script to the upstream→client byte flow of each accepted
// connection. It is the piece that turns "kill the follower's link after
// exactly N bytes of the delta stream" into one line of test setup.
type Proxy struct {
	ln       net.Listener
	upstream string

	mu     sync.Mutex
	script func() *Script // per-connection; nil = clean pass-through
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewProxy listens on a fresh loopback port and forwards every accepted
// connection to upstream (a host:port address).
func NewProxy(upstream string) (*Proxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("faultinject: proxy listen: %w", err)
	}
	p := &Proxy{ln: ln, upstream: upstream, conns: make(map[net.Conn]struct{})}
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// Addr is the proxy's host:port — point the client at this.
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// URL is the proxy address as an http base URL.
func (p *Proxy) URL() string { return "http://" + p.Addr() }

// SetScript installs a factory producing the fault script applied to the
// upstream→client flow of each subsequently accepted connection. Scripts
// are single-use, hence the factory. nil restores clean pass-through.
func (p *Proxy) SetScript(fn func() *Script) {
	p.mu.Lock()
	p.script = fn
	p.mu.Unlock()
}

// SeverAll closes every live proxied connection immediately, in both
// directions — the network-partition lever.
func (p *Proxy) SeverAll() {
	p.mu.Lock()
	for c := range p.conns {
		c.Close()
	}
	p.mu.Unlock()
}

// Close stops accepting, severs every live connection, and waits for the
// forwarding goroutines to drain.
func (p *Proxy) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	p.mu.Unlock()
	err := p.ln.Close()
	p.SeverAll()
	p.wg.Wait()
	return err
}

func (p *Proxy) acceptLoop() {
	defer p.wg.Done()
	for {
		client, err := p.ln.Accept()
		if err != nil {
			return
		}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			client.Close()
			return
		}
		script := p.script
		p.conns[client] = struct{}{}
		p.wg.Add(1)
		p.mu.Unlock()
		go p.forward(client, script)
	}
}

func (p *Proxy) forward(client net.Conn, scriptFn func() *Script) {
	defer p.wg.Done()
	defer func() {
		client.Close()
		p.mu.Lock()
		delete(p.conns, client)
		p.mu.Unlock()
	}()

	server, err := net.DialTimeout("tcp", p.upstream, 5*time.Second)
	if err != nil {
		return
	}
	defer server.Close()
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.conns[server] = struct{}{}
	p.mu.Unlock()
	defer func() {
		p.mu.Lock()
		delete(p.conns, server)
		p.mu.Unlock()
	}()

	var down io.Reader = server
	if scriptFn != nil {
		if s := scriptFn(); s != nil {
			down = Reader(server, s)
		}
	}

	done := make(chan struct{}, 2)
	go func() { // client → upstream (requests): always clean
		io.Copy(server, client)
		// Half-close so the upstream sees the request end; full close
		// happens when both directions finish.
		if tc, ok := server.(*net.TCPConn); ok {
			tc.CloseWrite()
		}
		done <- struct{}{}
	}()
	go func() { // upstream → client (responses): scripted
		_, err := io.Copy(client, down)
		if err != nil {
			// A fired Sever (or any transport error) kills the whole
			// proxied connection: the client must observe a broken
			// transport, not a half-open stall. A Truncate surfaces as
			// a clean EOF and falls through to the polite half-close.
			client.Close()
			server.Close()
		} else if tc, ok := client.(*net.TCPConn); ok {
			tc.CloseWrite()
		}
		done <- struct{}{}
	}()
	<-done
	<-done
}
