package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
)

// Code is a machine-readable error code. Every error the Engine returns
// carries one; the /v2 wire protocol exposes it verbatim in the error
// envelope so clients can branch on the failure class instead of
// pattern-matching messages.
type Code string

const (
	// CodeBadRequest is a malformed or incomplete request (missing model
	// name, missing origin, wifi_model without a fingerprint, ...).
	CodeBadRequest Code = "bad_request"
	// CodeBadBody is an unparseable request body (invalid JSON, trailing
	// garbage, an NDJSON line that is not an object).
	CodeBadBody Code = "bad_body"
	// CodeBodyTooLarge is a request body over the per-request byte cap.
	CodeBodyTooLarge Code = "body_too_large"
	// CodeModelNotFound names a model the registry does not hold.
	CodeModelNotFound Code = "model_not_found"
	// CodeWrongModelKind names a model of the other kind (wifi vs imu).
	CodeWrongModelKind Code = "wrong_model_kind"
	// CodeBadFingerprint is a fingerprint payload the model cannot take:
	// empty, over the per-request row cap, or the wrong feature width.
	CodeBadFingerprint Code = "bad_fingerprint"
	// CodeBadPath is a track path payload the model cannot take.
	CodeBadPath Code = "bad_path"
	// CodeBadSegment is a session segment payload the model cannot take.
	CodeBadSegment Code = "bad_segment"
	// CodeSessionNotFound names a session that does not exist (or was
	// evicted mid-request).
	CodeSessionNotFound Code = "session_not_found"
	// CodeSessionConflict binds a session to a different model than it
	// was created with.
	CodeSessionConflict Code = "session_conflict"
	// CodeDeadlineExceeded means the per-request deadline expired before
	// the forward pass containing the request completed.
	CodeDeadlineExceeded Code = "deadline_exceeded"
	// CodeCanceled means the caller went away before the result was ready.
	CodeCanceled Code = "canceled"
	// CodeInference is a failed forward pass (model vanished mid-flight,
	// an inference panic, a mid-session step failure).
	CodeInference Code = "inference_failed"
	// CodeDraining rejects new work while the server shuts down.
	CodeDraining Code = "server_draining"
)

// Error is the Engine's error type: a machine-readable Code, the HTTP
// status a transport adapter should map it to, and a human-readable
// message. /v2 wraps Code+Message in the structured envelope.
type Error struct {
	Code    Code
	Status  int
	Message string
}

func (e *Error) Error() string { return e.Message }

// errf builds an *Error with a formatted message.
func errf(code Code, status int, format string, args ...any) *Error {
	return &Error{Code: code, Status: status, Message: fmt.Sprintf(format, args...)}
}

// AsError coerces any error into an *Error, mapping context
// cancellation/deadline to their codes and everything else to an
// internal inference failure.
func AsError(err error) *Error {
	var e *Error
	if errors.As(err, &e) {
		return e
	}
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return &Error{Code: CodeDeadlineExceeded, Status: http.StatusGatewayTimeout, Message: "deadline exceeded before inference completed"}
	case errors.Is(err, context.Canceled):
		// 499 (client closed request, nginx's convention): the caller is
		// gone, the status is for metrics only.
		return &Error{Code: CodeCanceled, Status: 499, Message: "request canceled"}
	}
	return &Error{Code: CodeInference, Status: http.StatusInternalServerError, Message: err.Error()}
}
