"""Fixture: decorated boundaries (and abstract methods) lint clean."""

import abc


def policy_contract(fn):
    return fn


def proposal_contract(fn):
    return fn


def partition_contract(fn):
    return fn


class Policy:
    def partition(self, node, budget):
        raise NotImplementedError


class AbstractPolicy(Policy):
    @abc.abstractmethod
    def partition(self, node, budget):  # abstract: contract not required
        ...


class SimplePolicy(Policy):
    @policy_contract
    def partition(self, node, budget):
        return None


class AcquisitionOptimizer:
    @proposal_contract
    def propose(self, node):
        return None


class Space:
    @partition_contract
    def make(self):
        return None
