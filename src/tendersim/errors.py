"""Error taxonomy shared across the simulator.

Every exception carries a stable ``code`` string; reports record the code,
not the Python class name. A class exists only for an error that is raised;
the codes a rejected transaction's receipt carries are constants in
``contracts``, and two of them are the codes of the classes below.
"""


class TenderSimError(Exception):
    code = "TENDERSIM_ERROR"

    def __init__(self, message: str = ""):
        super().__init__(message or self.code)


# --- ledger ---------------------------------------------------------------

class UnknownSender(TenderSimError):
    code = "UNKNOWN_SENDER"


class TimestampNotMonotonic(TenderSimError):
    code = "TIMESTAMP_NOT_MONOTONIC"


class TimestampTooFarAhead(TenderSimError):
    code = "TIMESTAMP_TOO_FAR_AHEAD"


class NoSuchContract(TenderSimError):
    code = "NO_SUCH_CONTRACT"


# --- contracts ------------------------------------------------------------

class BiddingStillOpen(TenderSimError):
    code = "BIDDING_STILL_OPEN"


class SchemeHasNoState(TenderSimError):
    code = "SCHEME_HAS_NO_STATE"


class RepublishForbidden(TenderSimError):
    code = "REPUBLISH_FORBIDDEN"


# --- crypto ---------------------------------------------------------------

class DecryptionFailed(TenderSimError):
    code = "DECRYPTION_FAILED"


class AuthFailed(TenderSimError):
    code = "AUTH_FAILED"


# --- lifecycle / reporting -------------------------------------------------

class EvaluationBeforeDeadline(TenderSimError):
    code = "EVALUATION_BEFORE_DEADLINE"


class ResultsNotPublished(TenderSimError):
    code = "RESULTS_NOT_PUBLISHED"


class MalformedExport(TenderSimError):
    code = "MALFORMED_EXPORT"


class MalformedAddress(TenderSimError):
    code = "MALFORMED_ADDRESS"


class IncomparableScenarios(TenderSimError):
    code = "INCOMPARABLE_SCENARIOS"


class ScenarioError(TenderSimError):
    code = "SCENARIO_ERROR"
