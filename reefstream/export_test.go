package reefstream

import (
	"context"

	"reef/internal/upgrade"
)

// AppendEventAttrs exposes the pair-level event encoder to the external
// tests, which build frames no reef.Event can express.
var AppendEventAttrs = appendEvent

// hello is the hello frame's payload, which the package shares with the
// replication link.
type hello = upgrade.Hello

// PublishPayload exposes the raw publish path to the external tests.
func (c *Client) PublishPayload(ctx context.Context, payload []byte) (int, error) {
	return c.publishPayload(ctx, payload)
}
