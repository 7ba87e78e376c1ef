package main

import (
	"net"
	"sync/atomic"
)

// countingListener wraps a listener so every accepted connection adds the
// bytes it reads and writes to shared totals: the socket-level byte count
// the benchmark compares with the program's own size accounting.
type countingListener struct {
	net.Listener
	rx, tx atomic.Int64
	conns  atomic.Int64
}

func listenCounting(addr string) (*countingListener, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &countingListener{Listener: l}, nil
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.conns.Add(1)
	return &countedConn{Conn: c, l: l}, nil
}

// Bytes returns the bytes read plus written on all accepted connections.
func (l *countingListener) Bytes() int64 { return l.rx.Load() + l.tx.Load() }

type countedConn struct {
	net.Conn
	l *countingListener
}

func (c *countedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.l.rx.Add(int64(n))
	return n, err
}

func (c *countedConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.l.tx.Add(int64(n))
	return n, err
}
