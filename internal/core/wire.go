package core

// WireMessages returns prototype values for every message type the protocol
// puts on the transport, in a fixed order that is part of the cluster's wire
// contract: the socket runtime (internal/runtime/net) assigns codes by list
// position, so every process in a deployment must build its codec from this
// exact list. Append new message types at the end; reordering or removing
// entries breaks wire compatibility between builds.
//
// The list must stay in sync with the Recv dispatch switches (Server.recv,
// Peer.recv and the role-specific handlers): a type that is sent but not
// listed here fails at Send time on the socket runtime with an
// "unregistered wire type" error, which is how drift surfaces.
func WireMessages() []any {
	return []any{
		// Server dialogue.
		serverJoinReq{},
		serverJoinResp{},
		replaceReq{},
		replaceResp{},
		ringDeadReq{},
		ringRepair{},
		ringRegister{},
		ringUnregister{},
		ringReplace{},
		sSizeSync{},
		ringLocate{},

		// T-network membership.
		tJoinReq{},
		tJoinSetup{},
		tJoinToSucc{},
		tJoinDone{},
		tJoinConfirm{},
		tJoinCancel{},
		loadTransferReq{},
		itemsMsg{},
		tLeaveToPred{},
		tLeaveToSucc{},
		tLeaveDone{},
		promoteMsg{},
		newParentMsg{},
		substituteMsg{},
		pointerUpdate{},
		findSuccReq{},
		findSuccResp{},

		// Ring stabilization.
		ringStabQ{},
		ringStabA{},
		ringNotify{},

		// S-network membership.
		sJoinReq{},
		sJoinAck{},
		sLeaveMsg{},
		sizeReport{},

		// Failure detection.
		helloMsg{},
		ackMsg{},

		// Data operations.
		storeReq{},
		spreadReq{},
		storeAck{},
		lookupReq{},
		floodReq{},
		foundMsg{},
		notFoundMsg{},

		// Tracker mode.
		indexAdd{},
		indexRemove{},
		fetchReq{},

		// Extensions: bypass links, surrogate caching.
		bypassAdd{},
		cacheAdd{},

		// Replication and the client-facing delete (ReplicationK).
		replicaPut{},
		replicaAck{},
		replicaDrop{},
		ownerAnnounce{},
		deleteReq{},
		deleteAck{},
		deleteFlood{},

		// Cache-wide delete invalidation.
		deleteRing{},

		// Replication anti-entropy (PR 20).
		replicaDigest{},
	}
}
