"""Fixture: every contract-presence rule (RPL302-RPL304) fires here."""


class Policy:
    def partition(self, node, budget):  # base itself is exempt
        raise NotImplementedError


class SimplePolicy(Policy):
    def partition(self, node, budget):  # RPL303: no @policy_contract
        return None


class AcquisitionOptimizer:
    def propose(self, node):  # RPL302: no @proposal_contract
        return None


class Space:
    def make(self):  # RPL304: configured constructor, no @partition_contract
        return None
