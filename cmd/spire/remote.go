package main

import (
	"context"
	"fmt"

	"spire/internal/client"
	"spire/internal/core"
)

// newRemoteClient builds the retrying client for -remote subcommand
// modes. The defaults (5 attempts, 100ms base, 5s cap, full jitter,
// Retry-After honored) are the client package's; the CLI only supplies
// identity.
func newRemoteClient(baseURL, tenant string) (*client.Client, error) {
	c, err := client.New(client.Config{BaseURL: baseURL, Tenant: tenant})
	if err != nil {
		return nil, fmt.Errorf("-remote: %w", err)
	}
	return c, nil
}

// remoteEstimate runs one estimation against a spire serve instance and
// returns the estimation plus the serving model's ID. The result is
// byte-for-byte what a local analyze with the same model would compute —
// the service contract the e2e suite pins. wireFmt selects the transport
// ("json"/"" or "bin"); the decoded estimation is identical either way.
// Datasets carrying scheduler events ship them too, so the server
// attaches the combined on/off-CPU report exactly as a local run would.
func remoteEstimate(ctx context.Context, c *client.Client, data core.Dataset, wireFmt string) (*core.Estimation, string, error) {
	res, err := c.Estimate(ctx, data.Samples, client.EstimateOptions{Wire: wireFmt, Sched: data.Sched})
	if err != nil {
		return nil, "", err
	}
	if res.Estimation == nil {
		return nil, "", fmt.Errorf("remote returned no estimation (model %s)", res.Model)
	}
	return res.Estimation, res.Model, nil
}
