"""Machine-checkable certificates and the canonical file formats.

Every "blocked" verdict ships a coalition plus a witness matching that
revalidates independently; every value round-trips through canonical JSON
byte-for-byte, which is also what the command line speaks.
"""

from ntumatch import gen_random, utility, verify
from ntumatch.games import BlockCertificate
from ntumatch.graphs import Matching
from ntumatch.serialize import (
    certificate_from_json,
    certificate_to_json,
    instance_from_json,
    instance_to_json,
    matching_to_json,
)

inst = gen_random(8, 2, 0.35, seed=42)

print("== instance JSON (canonical) ==")
text = instance_to_json(inst)
print(text)
assert instance_to_json(instance_from_json(text)) == text
print("round-trip: byte-identical")

m = Matching([])
verdict = verify(inst, m, "weak")
print(f"\nempty matching in weak core? {verdict.certificate is None} ({verdict.engine} engine)")
cert_text = certificate_to_json("weak", verdict.certificate)
print("certificate JSON:")
print(cert_text)

if verdict.certificate is not None:
    payload = certificate_from_json(cert_text)
    rebuilt = BlockCertificate(
        payload["coalition"],
        payload["witness"],
        "strong" if payload["kind"] == "weak" else "weak",
    )
    rebuilt.validate(inst, utility(inst, m))
    print("parsed certificate revalidates against the instance")
    print("\nwitness matching JSON:")
    print(matching_to_json(verdict.certificate.witness))
