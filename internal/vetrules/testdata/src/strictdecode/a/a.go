// Package a exercises strictdecode: handlers decode through the
// blessed strict decoder and surface typed errors only.
package a

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
)

// decodeStrict is the blessed strict decoder for this fixture.
//
//vet:strictdecode-impl
func decodeStrict(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	return dec.Decode(v) == nil
}

func handleGood(w http.ResponseWriter, r *http.Request) {
	var v struct{}
	if !decodeStrict(w, r, &v) {
		return
	}
}

func handleRawDecoder(w http.ResponseWriter, r *http.Request) {
	var v struct{}
	_ = json.NewDecoder(r.Body).Decode(&v) // want `raw json\.Decoder`
}

func handleReadAll(w http.ResponseWriter, r *http.Request) {
	_, _ = io.ReadAll(r.Body) // want `reads the raw request body`
}

func handleUntypedErrors(w http.ResponseWriter, r *http.Request) error {
	if r.ContentLength == 0 {
		return errors.New("empty") // want `constructs an untyped error`
	}
	return fmt.Errorf("bad request %q", r.URL.Path) // want `constructs an untyped error`
}

func handlePlainText(w http.ResponseWriter, r *http.Request) {
	http.Error(w, "boom", http.StatusInternalServerError) // want `plain-text http\.Error`
}

func handleSuppressedFastPath(w http.ResponseWriter, r *http.Request) {
	//vet:ignore strictdecode -- fixture: fast path with the size cap enforced by MaxBytesReader
	body, _ := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	_ = body
}

// exchange carries the writer and request the way serve's per-request
// context does; functions over it are handlers too.
type exchange struct {
	w http.ResponseWriter
	r *http.Request
}

func (x *exchange) readAll() {
	_, _ = io.ReadAll(x.r.Body) // want `reads the raw request body`
}

func opRawDecoder(x *exchange) {
	var v struct{}
	_ = json.NewDecoder(x.r.Body).Decode(&v) // want `raw json\.Decoder`
}

// decodeAgain is a second blessed decoder: one per package.
//
//vet:strictdecode-impl
func decodeAgain(x *exchange, v any) bool { // want `second //vet:strictdecode-impl`
	return json.NewDecoder(http.MaxBytesReader(x.w, x.r.Body, 1<<20)).Decode(v) == nil
}

// notAHandler has no ResponseWriter parameter, so raw reads are fine.
func notAHandler(r *http.Request) ([]byte, error) {
	return io.ReadAll(r.Body)
}
