"""k-ary n-cube topology (paper Section 2.1, reference [20]).

"The ALEWIFE system uses a low-dimension direct network.  Such networks
scale easily and maintain high nearest-neighbor bandwidth."

Nodes are numbered 0..k^n-1; coordinates are base-k digits.  Routing is
dimension-order (e-cube) over bidirectional links without wraparound
("a three dimensional array", i.e. a mesh); the average random-pair
distance in each dimension is ~k/3, giving the paper's nk/3 figure.
"""

from repro.errors import ConfigError


class KAryNCube:
    """A k-ary n-dimensional mesh."""

    def __init__(self, dim, radix):
        if dim < 1 or radix < 1:
            raise ConfigError("degenerate topology %d-ary %d-cube"
                              % (radix, dim))
        self.dim = dim
        self.radix = radix
        self.num_nodes = radix ** dim

    @classmethod
    def fitting(cls, num_nodes, dim=2):
        """The smallest dim-dimensional mesh with >= num_nodes nodes."""
        if dim < 1:
            # No radix covers more than one node in zero dimensions.
            raise ConfigError("degenerate topology: %d-cube" % dim)
        radix = 1
        while radix ** dim < num_nodes:
            radix += 1
        return cls(dim, radix)

    def coordinates(self, node):
        """Base-radix digit vector of a node id."""
        if not 0 <= node < self.num_nodes:
            raise ConfigError("node %d out of range" % node)
        coords = []
        for _ in range(self.dim):
            coords.append(node % self.radix)
            node //= self.radix
        return tuple(coords)

    def node_at(self, coords):
        """Node id of a coordinate vector."""
        node = 0
        for axis in reversed(range(self.dim)):
            node = node * self.radix + coords[axis]
        return node

    def distance(self, src, dst):
        """Hop count between two nodes (Manhattan distance)."""
        a = self.coordinates(src)
        b = self.coordinates(dst)
        return sum(abs(x - y) for x, y in zip(a, b))

    def route(self, src, dst):
        """Dimension-order route: the sequence of directed links.

        Each link is ``(node, axis, direction)`` with direction +-1;
        deterministic e-cube routing (deadlock-free in a mesh).
        """
        links = []
        coords = list(self.coordinates(src))
        target = self.coordinates(dst)
        for axis in range(self.dim):
            while coords[axis] != target[axis]:
                direction = 1 if target[axis] > coords[axis] else -1
                links.append((self.node_at(coords), axis, direction))
                coords[axis] += direction
        return links

    def average_distance(self):
        """Expected random-pair distance: ~ dim * radix / 3."""
        # Exact per-axis expectation for a line of length k:
        # E|x - y| = (k^2 - 1) / (3k).
        k = self.radix
        return self.dim * (k * k - 1) / (3.0 * k)
