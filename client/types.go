package client

// Wire types, mirroring the server's /v2 JSON shapes. They are
// defined here rather than imported so the SDK stays a standalone
// dependency surface: a device vendor builds against this package only.

// XY is a planar point.
type XY struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

// Position is one decoded localization result.
type Position struct {
	X        float64 `json:"x"`
	Y        float64 `json:"y"`
	Class    int     `json:"class"`
	Building int     `json:"building"`
	Floor    int     `json:"floor"`
}

// Path is one IMU path to decode: the anchor position plus the
// concatenated per-segment features (a multiple of the model's
// segment_dim).
type Path struct {
	Start    XY        `json:"start"`
	Features []float64 `json:"features"`
}

// TrackResult is one decoded path end.
type TrackResult struct {
	End          XY  `json:"end"`
	Class        int `json:"class"`
	Displacement XY  `json:"displacement"`
}

// ModelInfo summarizes one registered model.
type ModelInfo struct {
	Name       string `json:"name"`
	Kind       string `json:"kind"`      // "wifi" or "imu"
	Precision  string `json:"precision"` // serving tier: "fp64" or "int8"
	Classes    int    `json:"classes"`
	FLOPs      int64  `json:"flops"`
	Generation int    `json:"generation"`
	LoadedAt   string `json:"loaded_at"`

	// Deployment lifecycle. Stage is "shadow", "canary", or "active"
	// (empty against a pre-lifecycle server); Models lists staged
	// generations alongside the active ones.
	Stage    string `json:"stage,omitempty"`
	BundleID string `json:"bundle_id,omitempty"`

	// Wi-Fi only.
	InputDim  int `json:"input_dim,omitempty"`
	Buildings int `json:"buildings,omitempty"`
	Floors    int `json:"floors,omitempty"`

	// IMU only.
	MaxSegments int `json:"max_segments,omitempty"`
	SegmentDim  int `json:"segment_dim,omitempty"`

	// Lifecycle carries a generation's promotion policy and live
	// evaluation evidence.
	Lifecycle *LifecycleInfo `json:"lifecycle,omitempty"`
}

// LifecycleInfo is one model generation's deployment state: its stage,
// the stage its bundle is allowed to reach, the promotion policy, and
// the live evidence (mirrored traffic, re-anchor error scores, pass
// latency) the server's promotion controller weighs.
type LifecycleInfo struct {
	Stage           string          `json:"stage"`
	Target          string          `json:"target"`
	Since           string          `json:"since"`
	MirroredRows    int64           `json:"mirrored_rows"`
	ReAnchorScores  int64           `json:"reanchor_scores"`
	MeanErrorM      float64         `json:"mean_error_m"`
	MeanDivergenceM float64         `json:"mean_divergence_m"`
	P99PassMS       float64         `json:"p99_pass_ms"`
	DroppedMirrors  int64           `json:"dropped_mirrors"`
	Policy          LifecyclePolicy `json:"policy"`
}

// LifecyclePolicy is the promotion contract a bundle declared in its
// lifecycle.json sidecar.
type LifecyclePolicy struct {
	MinShadowRequests int64   `json:"min_shadow_requests"`
	MinCanaryRequests int64   `json:"min_canary_requests"`
	MaxErrorDeltaM    float64 `json:"max_error_delta_m"`
	MaxP99DeltaMS     float64 `json:"max_p99_delta_ms"`
}

// Health is the server liveness summary.
type Health struct {
	RequestID     string `json:"request_id,omitempty"`
	Status        string `json:"status"`
	Models        int    `json:"models"`
	Batching      bool   `json:"batching"`
	Sessions      int    `json:"sessions"`
	UptimeSeconds int64  `json:"uptime_seconds"`
	Draining      bool   `json:"draining,omitempty"`
}

// StepResult is one decoded tracking step inside a session.
type StepResult struct {
	Step         int `json:"step"` // 1-based lifetime step index
	End          XY  `json:"end"`
	Class        int `json:"class"`
	Displacement XY  `json:"displacement"`
}

// SessionState describes a tracking session after a request: identity,
// what the request did (Created, ReAnchored, per-step Results), and the
// current estimate.
type SessionState struct {
	RequestID  string       `json:"request_id,omitempty"`
	Session    string       `json:"session"`
	Model      string       `json:"model"`
	Created    bool         `json:"created,omitempty"`
	ReAnchored bool         `json:"re_anchored,omitempty"`
	Anchor     *XY          `json:"anchor,omitempty"`
	Steps      int          `json:"steps"`
	Position   XY           `json:"position"`
	Class      int          `json:"class"`
	Traveled   XY           `json:"traveled"`
	Results    []StepResult `json:"results,omitempty"`
}

// AppendRequest is one session-segments request: everything optional
// except that the session's first request must carry Model plus an
// origin (Start and/or a WiFi fingerprint).
type AppendRequest struct {
	Model  string `json:"model,omitempty"`
	Start  *XY    `json:"start,omitempty"`
	Window int    `json:"window,omitempty"`

	Features []float64 `json:"features,omitempty"`

	WiFiModel   string    `json:"wifi_model,omitempty"`
	Fingerprint []float64 `json:"fingerprint,omitempty"`
}
