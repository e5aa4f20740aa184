"""Reserved tag space for collective-internal point-to-point traffic.

Collectives run in a communicator's *collective context* (a context id
distinct from user point-to-point traffic, like MPICH's hidden context),
so these tags can never collide with user tags.
"""

TAG_BCAST = 1
TAG_BARRIER_IN = 2       #: fold-in / gather phase of barrier
TAG_BARRIER_EXCH = 3     #: pairwise exchange phase
TAG_BARRIER_OUT = 4      #: release phase
TAG_REDUCE = 5
TAG_GATHER = 6
TAG_SCATTER = 7
TAG_SCOUT = 10           #: multicast scout synchronization (over p2p path)
TAG_ACK = 11             #: ack-based reliable multicast
TAG_COMM_SETUP = 12      #: communicator construction handshakes
TAG_HIER = 13            #: hierarchical-collective leader→root forwards
