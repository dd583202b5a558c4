package reef

import (
	"context"
	"fmt"
	"time"
)

// DeliveryGuarantee selects how hard a subscription's deliveries try.
// The zero value is invalid so defaults stay explicit.
type DeliveryGuarantee int

const (
	// BestEffort (default) displays each matched event in the user's
	// bounded sidebar, which evicts its oldest item when full; nothing is
	// retained for a consumer that is not looking.
	BestEffort DeliveryGuarantee = iota + 1
	// AtLeastOnce retains every matched event until the consumer acks
	// past it, with a durable cumulative cursor, lease-based redelivery
	// and a dead-letter queue after the max-attempts cap.
	AtLeastOnce
)

// Stable wire strings for the guarantees.
const (
	guaranteeBestEffort  = "best_effort"
	guaranteeAtLeastOnce = "at_least_once"
)

// String returns the guarantee's stable wire name.
func (g DeliveryGuarantee) String() string {
	switch g {
	case BestEffort:
		return guaranteeBestEffort
	case AtLeastOnce:
		return guaranteeAtLeastOnce
	default:
		return fmt.Sprintf("guarantee(%d)", int(g))
	}
}

// ParseDeliveryGuarantee inverts String. Unknown names return a
// *ConfigError (wrapping ErrInvalidArgument).
func ParseDeliveryGuarantee(s string) (DeliveryGuarantee, error) {
	switch s {
	case guaranteeBestEffort:
		return BestEffort, nil
	case guaranteeAtLeastOnce:
		return AtLeastOnce, nil
	default:
		return 0, &ConfigError{
			Field:  "guarantee",
			Value:  s,
			Reason: "unknown delivery guarantee",
			Help:   `use "best_effort" or "at_least_once"`,
		}
	}
}

// ConfigError is a rich, typed subscription-configuration error: which
// field is wrong, what value it had, why it was rejected and how to fix
// it. It unwraps to ErrInvalidArgument, so errors.Is-based handling (and
// the REST error mapping) treats it like any other invalid argument.
type ConfigError struct {
	// Field names the offending configuration field.
	Field string
	// Value is the rejected value, rendered as text.
	Value string
	// Reason says why the value was rejected.
	Reason string
	// Help suggests the fix.
	Help string
}

// Error implements error.
func (e *ConfigError) Error() string {
	msg := fmt.Sprintf("reef: invalid subscription config: %s=%q: %s", e.Field, e.Value, e.Reason)
	if e.Help != "" {
		msg += " (" + e.Help + ")"
	}
	return msg
}

// Unwrap makes errors.Is(err, ErrInvalidArgument) true.
func (e *ConfigError) Unwrap() error { return ErrInvalidArgument }

// SubscribeConfig is the per-subscription delivery configuration
// assembled from SubscribeOptions.
type SubscribeConfig struct {
	// Guarantee is the delivery tier; zero means BestEffort.
	Guarantee DeliveryGuarantee
	// AckTimeout is the redelivery lease for fetched events; zero means
	// the deployment default. Requires AtLeastOnce.
	AckTimeout time.Duration
	// MaxAttempts caps deliveries per event before it is dead-lettered;
	// zero means the deployment default. Requires AtLeastOnce.
	MaxAttempts int
}

// SubscribeOption tunes one Subscribe call.
type SubscribeOption func(*SubscribeConfig)

// WithGuarantee selects the subscription's delivery tier.
func WithGuarantee(g DeliveryGuarantee) SubscribeOption {
	return func(c *SubscribeConfig) { c.Guarantee = g }
}

// WithAckTimeout sets the redelivery lease for fetched events, in whole
// milliseconds as the WAL keeps it. Requires WithGuarantee(AtLeastOnce).
func WithAckTimeout(d time.Duration) SubscribeOption {
	return func(c *SubscribeConfig) { c.AckTimeout = d }
}

// WithMaxAttempts caps deliveries per event before dead-lettering.
// Requires WithGuarantee(AtLeastOnce).
func WithMaxAttempts(n int) SubscribeOption {
	return func(c *SubscribeConfig) { c.MaxAttempts = n }
}

// NewSubscribeConfig applies options and validates the combination. The
// client SDK uses it to serialize options onto the wire; deployments use
// it to reject impossible combinations with a *ConfigError before any
// state changes.
func NewSubscribeConfig(opts ...SubscribeOption) (SubscribeConfig, error) {
	var c SubscribeConfig
	for _, opt := range opts {
		opt(&c)
	}
	switch c.Guarantee {
	case 0:
		c.Guarantee = BestEffort
	case BestEffort, AtLeastOnce:
	default:
		return SubscribeConfig{}, &ConfigError{
			Field:  "guarantee",
			Value:  c.Guarantee.String(),
			Reason: "unknown delivery guarantee",
			Help:   "use BestEffort or AtLeastOnce",
		}
	}
	if c.AckTimeout < 0 {
		return SubscribeConfig{}, &ConfigError{
			Field:  "ack_timeout",
			Value:  c.AckTimeout.String(),
			Reason: "negative ack timeout",
			Help:   "use a positive duration, or zero for the deployment default",
		}
	}
	if c.MaxAttempts < 0 {
		return SubscribeConfig{}, &ConfigError{
			Field:  "max_attempts",
			Value:  fmt.Sprint(c.MaxAttempts),
			Reason: "negative max attempts",
			Help:   "use a positive cap, or zero for the deployment default",
		}
	}
	if c.Guarantee != AtLeastOnce {
		if c.AckTimeout > 0 {
			return SubscribeConfig{}, &ConfigError{
				Field:  "ack_timeout",
				Value:  c.AckTimeout.String(),
				Reason: "ack timeouts require the at-least-once tier",
				Help:   "add WithGuarantee(AtLeastOnce)",
			}
		}
		if c.MaxAttempts > 0 {
			return SubscribeConfig{}, &ConfigError{
				Field:  "max_attempts",
				Value:  fmt.Sprint(c.MaxAttempts),
				Reason: "max attempts require the at-least-once tier",
				Help:   "add WithGuarantee(AtLeastOnce)",
			}
		}
	}
	return c, nil
}

// DeliveredEvent is one event leased to a consumer by FetchEvents.
type DeliveredEvent struct {
	// Seq is the event's position in the subscription's total order,
	// starting at 1. Acks are cumulative over it.
	Seq int64 `json:"seq"`
	// Attempts counts deliveries of this event, including this one.
	Attempts int   `json:"attempts"`
	Event    Event `json:"event"`
}

// DeadLetter is one event that exhausted its delivery attempts (or was
// evicted by the retained-window bound) without being acked.
type DeadLetter struct {
	Seq      int64 `json:"seq"`
	Attempts int   `json:"attempts"`
	Event    Event `json:"event"`
	// At is when the event was dead-lettered.
	At time.Time `json:"at"`
	// Reason is "max-attempts" or "overflow".
	Reason string `json:"reason"`
}

// ReliableDeliverer is the optional reliable-delivery surface of a
// Deployment, available for subscriptions placed with
// WithGuarantee(AtLeastOnce). The centralized deployment, the client SDK
// and the cluster router implement it; the REST layer maps it to the
// fetch/ack/deadletter endpoints and answers 501 for deployments that do
// not implement it (the distributed WAIF-peer pipeline stays
// best-effort, as in the paper).
type ReliableDeliverer interface {
	// FetchEvents leases up to max retained events (all eligible events
	// when max <= 0) of one reliable subscription, in sequence order.
	// Each fetched event must be acked within the subscription's ack
	// timeout or it is redelivered with jittered exponential backoff
	// until the max-attempts cap dead-letters it.
	FetchEvents(ctx context.Context, user, subID string, max int) ([]DeliveredEvent, error)
	// Ack advances the subscription's durable cumulative cursor: every
	// event with sequence <= seq is done. With nack set it instead asks
	// for immediate redelivery (after backoff) of the leased events at or
	// below seq, without touching the cursor.
	Ack(ctx context.Context, user, subID string, seq int64, nack bool) error
	// DeadLetters lists a subscription's dead-letter queue without
	// consuming it. An empty subID aggregates all of the user's reliable
	// subscriptions.
	DeadLetters(ctx context.Context, user, subID string) ([]DeadLetter, error)
	// DrainDeadLetters removes and returns the dead-letter queue, with
	// the same subID semantics as DeadLetters.
	DrainDeadLetters(ctx context.Context, user, subID string) ([]DeadLetter, error)
}

// StreamDeliverer is the push-capable extension of ReliableDeliverer: a
// deployment that can tell a waiting consumer the moment a reliable
// subscription retains new events, and lease events into a
// caller-provided buffer without allocating per fetch. The streaming
// data plane (reefstream) and the REST long-poll are both built on it;
// transports probe for it with a type assertion and fall back to
// polling FetchEvents when absent.
type StreamDeliverer interface {
	ReliableDeliverer
	// FetchEventsInto is FetchEvents appending into dst (which may be
	// nil), so hot push loops reuse one buffer across fetches. max
	// bounds the events appended by this call.
	FetchEventsInto(ctx context.Context, user, subID string, dst []DeliveredEvent, max int) ([]DeliveredEvent, error)
	// NotifyEvents registers ch for a non-blocking signal whenever the
	// subscription retains a new event, returning a cancel func that
	// unregisters it. The signal is an edge, not a level: pass a
	// 1-buffered channel and always re-fetch after waking. Lease expiry
	// does not signal, so a waiter that also wants redeliveries must
	// keep a coarse retry timer of its own. Fails with ErrNotFound for
	// an unknown subscription and an ErrInvalidArgument-wrapping error
	// for a best-effort one, mirroring FetchEvents.
	NotifyEvents(user, subID string, ch chan<- struct{}) (cancel func(), err error)
}
