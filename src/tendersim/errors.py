"""Error taxonomy shared across the simulator.

Every exception carries a stable ``code`` string; transaction receipts and
reports record the code, not the Python class name.
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


class UnmeteredOperation(TenderSimError):
    code = "UNMETERED_OPERATION"


class NoSuchContract(TenderSimError):
    code = "NO_SUCH_CONTRACT"


# --- contracts ------------------------------------------------------------

class InvalidTenderParams(TenderSimError):
    code = "INVALID_TENDER_PARAMS"


class DataTooLarge(TenderSimError):
    code = "DATA_TOO_LARGE"


class MalformedCertificate(TenderSimError):
    code = "MALFORMED_CERTIFICATE"


class CertificateRejected(TenderSimError):
    code = "CERTIFICATE_REJECTED"


class BiddingStillOpen(TenderSimError):
    code = "BIDDING_STILL_OPEN"


class SchemeHasNoState(TenderSimError):
    code = "SCHEME_HAS_NO_STATE"


class ImmutableState(TenderSimError):
    code = "IMMUTABLE_STATE"


class RepublishForbidden(TenderSimError):
    code = "REPUBLISH_FORBIDDEN"


class UnknownContractCall(TenderSimError):
    code = "UNKNOWN_CONTRACT_CALL"


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
