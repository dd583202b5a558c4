package reefstream

import "context"

// AppendEventAttrs exposes the pair-level event encoder to the external
// tests, which build frames no reef.Event can express.
var AppendEventAttrs = appendEvent

// PublishPayload exposes the raw publish path to the external tests.
func (c *Client) PublishPayload(ctx context.Context, payload []byte) (int, error) {
	return c.publishPayload(ctx, payload)
}
