package client

import (
	"encoding/json"
	"fmt"
)

// Error codes the server may return; mirror internal/serve.
const (
	CodeBadRequest       = "bad_request"
	CodeBadBody          = "bad_body"
	CodeBodyTooLarge     = "body_too_large"
	CodeModelNotFound    = "model_not_found"
	CodeWrongModelKind   = "wrong_model_kind"
	CodeBadFingerprint   = "bad_fingerprint"
	CodeBadPath          = "bad_path"
	CodeBadSegment       = "bad_segment"
	CodeSessionNotFound  = "session_not_found"
	CodeSessionConflict  = "session_conflict"
	CodeDeadlineExceeded = "deadline_exceeded"
	CodeCanceled         = "canceled"
	CodeInference        = "inference_failed"
	CodeDraining         = "server_draining"
)

// APIError is a non-2xx server answer: HTTP status, the
// machine-readable code, the human-readable message, and the
// server-assigned request ID. Code is empty when the body is not the
// error envelope (a proxy's page, the plain-text 404 of a path the
// server does not route); Message then holds the start of the body.
type APIError struct {
	Status    int
	Code      string
	Message   string
	RequestID string
}

func (e *APIError) Error() string {
	if e.Code != "" {
		return fmt.Sprintf("%s (%s, http %d)", e.Message, e.Code, e.Status)
	}
	return fmt.Sprintf("%s (http %d)", e.Message, e.Status)
}

// IsCode reports whether err is an *APIError with the given code.
func IsCode(err error, code string) bool {
	e, ok := err.(*APIError)
	return ok && e.Code == code
}

// parseAPIError decodes an error body: the structured envelope
// {"error":{"code","message","request_id"}}, or — for any other body —
// the raw text.
func parseAPIError(status int, body []byte) *APIError {
	var env struct {
		Error *struct {
			Code      string `json:"code"`
			Message   string `json:"message"`
			RequestID string `json:"request_id"`
		} `json:"error"`
	}
	if json.Unmarshal(body, &env) == nil && env.Error != nil {
		return &APIError{Status: status, Code: env.Error.Code, Message: env.Error.Message, RequestID: env.Error.RequestID}
	}
	msg := string(body)
	if len(msg) > 200 {
		msg = msg[:200]
	}
	return &APIError{Status: status, Message: msg}
}
