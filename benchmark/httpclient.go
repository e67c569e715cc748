package main

// A minimal keep-alive HTTP/1.1 client for POST /query. The load
// generator shares two cores with the server it measures, so the client
// writes a pre-built request to one TCP connection and parses the reply
// with net/http's reader — no Transport, no per-request goroutines.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
)

// queryRequest renders the bytes of one POST /query for sql.
func queryRequest(sql string) []byte {
	body, _ := json.Marshal(struct {
		SQL string `json:"sql"`
	}{sql})
	var b bytes.Buffer
	fmt.Fprintf(&b, "POST /query HTTP/1.1\r\nHost: beas\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n", len(body))
	b.Write(body)
	return b.Bytes()
}

type httpClient struct {
	conn net.Conn
	br   *bufio.Reader
	body bytes.Buffer
}

func dialHTTP(addr string) (*httpClient, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &httpClient{conn: conn, br: bufio.NewReaderSize(conn, 32<<10)}, nil
}

// do sends one request and reads the whole response. The returned body
// is valid until the next call.
func (c *httpClient) do(req []byte) (status int, body []byte, err error) {
	if _, err := c.conn.Write(req); err != nil {
		return 0, nil, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return 0, nil, err
	}
	c.body.Reset()
	_, err = c.body.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, c.body.Bytes(), nil
}

func (c *httpClient) close() { c.conn.Close() }

// get fetches one path (for /metrics) over a fresh connection.
func httpGet(addr, path string) ([]byte, error) {
	c, err := dialHTTP(addr)
	if err != nil {
		return nil, err
	}
	defer c.close()
	status, body, err := c.do([]byte("GET " + path + " HTTP/1.1\r\nHost: beas\r\n\r\n"))
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", path, status)
	}
	return append([]byte(nil), body...), nil
}
