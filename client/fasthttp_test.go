package client

import (
	"bufio"
	"context"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"
)

// rawServer answers every connection with the given bytes after reading
// the request head. With hold it then keeps the connection open — a
// server that sends a framing header and never the body it promised;
// otherwise it hangs up, ending a close-delimited body.
func rawServer(t *testing.T, response string, hold bool) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				br := bufio.NewReader(conn)
				for {
					line, err := br.ReadString('\n')
					if err != nil {
						return
					}
					if line == "\r\n" {
						break
					}
				}
				io.WriteString(conn, response)
				if hold {
					io.Copy(io.Discard, br) // until the client hangs up
				}
			}()
		}
	}()
	return "http://" + ln.Addr().String()
}

// The framing headers are the server's claim: an oversized one must fail
// the exchange before a buffer is sized from it, and the connection must
// not go back to the pool (its unread body would poison the next call).
func TestFastTransportCapsResponseSize(t *testing.T) {
	const head = "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
	cases := map[string]string{
		"content-length":   head + "Content-Length: 9000000000\r\n\r\n",
		"chunk-size":       head + "Transfer-Encoding: chunked\r\n\r\n7fffffff\r\n",
		"chunks-adding-up": head + "Transfer-Encoding: chunked\r\n\r\n4\r\nabcd\r\n3ffffffd\r\n",
	}
	for name, response := range cases {
		t.Run(name, func(t *testing.T) {
			c := New(rawServer(t, response, true), WithRetries(0, 0), WithFastTransport())
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			_, err := c.Models(ctx)
			if !errors.Is(err, errResponseTooLarge) {
				t.Fatalf("err = %v, want errResponseTooLarge", err)
			}
			if n := len(c.fast.pool); n != 0 {
				t.Fatalf("%d connection(s) pooled after an oversized response", n)
			}
		})
	}
}

// A close-delimited body has no header to check, so the cap is on the
// bytes themselves; an ordinary body still arrives whole.
func TestFastTransportCloseDelimitedBody(t *testing.T) {
	body := `{"models":[{"name":"` + strings.Repeat("m", 4096) + `"}]}`
	c := New(rawServer(t, "HTTP/1.0 200 OK\r\n\r\n"+body, false), WithRetries(0, 0), WithFastTransport())
	models, err := c.Models(context.Background())
	if err != nil || len(models) != 1 || len(models[0].Name) != 4096 {
		t.Fatalf("models %v, err %v", models, err)
	}
}
