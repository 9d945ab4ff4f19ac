"""Minimal SIP session layer: registration, INVITE handshake, BYE teardown.

One shared state machine per session walks Idle, Inviting, Ringing,
Established, Terminating, Closed; any state may fall to Closed on timeout.
One rule covers every delivery: each message kind is expected in a fixed set
of states (EXPECTED_IN), and a message that arrives in any other state, such
as one still in flight after the session closed or a 180 overtaken by the
200, is discarded.  Every message travels caller -> proxy -> callee through
the same network fabric as media, so setup delay is real transport delay,
plus PROXY_PROC_US at the proxy for each relay.
Media gating and busy tracking are the caller's job: the call scheduler
pairs only idle stations, starts frames on the established callback and stops
them at the scheduled call end.
"""

from __future__ import annotations

from .netmodels import Fabric
from .simcore import SimError, Simulator
from .traffic import CallSpec

SIP_MESSAGE_BYTES = 500  # uniform size; SIP is text, a few hundred bytes
PROXY_PROC_US = 1_000  # proxy processing time per relayed message

IDLE = "Idle"
INVITING = "Inviting"
RINGING = "Ringing"
ESTABLISHED = "Established"
TERMINATING = "Terminating"
CLOSED = "Closed"

INVITE = "INVITE"
RINGING_180 = "RINGING_180"
OK_200 = "OK_200"
ACK = "ACK"
BYE = "BYE"

# the states in which each message kind is expected; a 200 answers the BYE in
# Terminating and the INVITE in Ringing, or in Inviting if its 180 is late or lost
EXPECTED_IN = {
    INVITE: (INVITING,),
    RINGING_180: (INVITING,),
    OK_200: (INVITING, RINGING, TERMINATING),
    ACK: (RINGING,),
    BYE: (TERMINATING,),
}


class SipError(SimError):
    pass


class CalleeUnregistered(SipError):
    pass


class SipMessage:
    __slots__ = ("kind", "session", "dst")

    def __init__(self, kind: str, session: "SipSession", dst: str):
        self.kind = kind
        self.session = session
        self.dst = dst


class SipSession:
    def __init__(self, session_id: int, caller: str, callee: str, t_invite: int):
        self.session_id = session_id
        self.caller = caller
        self.callee = callee
        self.state = IDLE
        self.t_invite = t_invite
        self.t_established: int | None = None
        self.on_established = None
        self.on_closed = None
        # Simulator.schedule handles of the pending timers
        self._timeout_event: list | None = None
        self._answer_event: list | None = None


class SessionLayer:
    """Drives SIP sessions over a fabric.

    The fabric only needs send(item, size_bytes, src, dst, on_end, on_fail);
    the proxy is the endpoint named Fabric.PROXY, adding PROXY_PROC_US per
    relay.  The answer delay and INVITE timer are read from calls.
    session_log, when given, is called with one log line, newline included,
    per state transition.
    """

    def __init__(self, sim: Simulator, fabric, calls: CallSpec, *, session_log=None):
        self.sim = sim
        self.fabric = fabric
        self.spec = calls
        self.session_log = session_log
        self.registered: set[str] = set()  # URIs the proxy can route to
        self.sessions: list[SipSession] = []
        self._next_session_id = 0

    def register_all(self, uris) -> None:
        """Register each URI; registering one again changes nothing."""
        self.registered.update(uris)

    # -- session control -------------------------------------------------

    def initiate(self, caller: str, callee: str, on_established, on_closed) -> SipSession:
        if caller not in self.registered:
            raise SipError(f"caller {caller} is not registered")
        if callee not in self.registered:
            raise CalleeUnregistered(callee)
        session = SipSession(self._next_session_id, caller, callee, self.sim.now)
        self._next_session_id += 1
        session.on_established = on_established
        session.on_closed = on_closed
        self.sessions.append(session)
        self._transition(session, INVITING)
        session._timeout_event = self.sim.schedule(
            self.sim.now + self.spec.invite_timeout_us, self._on_timeout, session,
            kind="sip-timeout")
        self._send(session, INVITE, caller, callee)
        return session

    def teardown(self, session: SipSession) -> None:
        if session.state == CLOSED:
            return
        if session.state != ESTABLISHED:
            raise SipError(f"teardown in state {session.state}")
        self._transition(session, TERMINATING)
        # same liveness escape as INVITE: a lost BYE or its 200 must not pin
        # the pair busy forever
        session._timeout_event = self.sim.schedule(
            self.sim.now + self.spec.invite_timeout_us, self._on_timeout, session,
            kind="sip-timeout")
        self._send(session, BYE, session.caller, session.callee)

    # -- transport -------------------------------------------------------

    def _send(self, session: SipSession, kind: str, src: str, dst: str) -> None:
        msg = SipMessage(kind, session, dst)
        self.sim.stats.sip_messages_sent += 1
        self.fabric.send(msg, SIP_MESSAGE_BYTES, src, Fabric.PROXY,
                         self._at_proxy, self._msg_lost)

    def _at_proxy(self, msg: SipMessage, _t: int) -> None:
        self.sim.schedule(self.sim.now + PROXY_PROC_US, self._relay, msg, kind="sip-relay")

    def _relay(self, msg: SipMessage) -> None:
        self.fabric.send(msg, SIP_MESSAGE_BYTES, Fabric.PROXY, msg.dst,
                         self._deliver, self._msg_lost)

    def _msg_lost(self, _msg: SipMessage, _reason: str) -> None:
        self.sim.stats.sip_messages_dropped += 1

    # -- state machine ---------------------------------------------------

    def _deliver(self, msg: SipMessage, _t: int) -> None:
        self.sim.stats.sip_messages_delivered += 1
        session = msg.session
        kind = msg.kind
        if session.state not in EXPECTED_IN[kind]:
            return
        if kind == INVITE:
            self._send(session, RINGING_180, session.callee, session.caller)
            session._answer_event = self.sim.schedule(
                self.sim.now + self.spec.answer_delay_us, self._on_answer, session,
                kind="sip-answer")
        elif kind == RINGING_180:
            self._transition(session, RINGING)
        elif kind == OK_200:
            if session.state == TERMINATING:
                self._close(session)
                return
            if session.state == INVITING:
                self._transition(session, RINGING)
            self._send(session, ACK, session.caller, session.callee)
        elif kind == ACK:
            self._cancel_timer(session)
            session.t_established = self.sim.now
            self._transition(session, ESTABLISHED)
            if session.on_established is not None:
                session.on_established(session)
        else:  # BYE
            self._send(session, OK_200, session.callee, session.caller)

    def _on_answer(self, session: SipSession) -> None:
        session._answer_event = None
        self._send(session, OK_200, session.callee, session.caller)

    def _on_timeout(self, session: SipSession) -> None:
        session._timeout_event = None
        if session.state != TERMINATING:
            self.sim.stats.calls_failed_setup += 1
        self._close(session)

    def _close(self, session: SipSession) -> None:
        self._cancel_timer(session)
        if session._answer_event is not None:
            self.sim.cancel(session._answer_event)
            session._answer_event = None
        self._transition(session, CLOSED)
        if session.on_closed is not None:
            session.on_closed(session)

    def _cancel_timer(self, session: SipSession) -> None:
        if session._timeout_event is not None:
            self.sim.cancel(session._timeout_event)
            session._timeout_event = None

    def _transition(self, session: SipSession, new_state: str) -> None:
        old = session.state
        session.state = new_state
        if self.session_log is not None:
            self.session_log(f"{self.sim.now} {session.session_id} {old}→{new_state}\n")
